package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"time"

	"indfd/internal/obs"
)

// clientAllocs bounds the client's own allocations per request (the
// http.Request); TestClientAllocationsPerRequest pins it.
const clientAllocs = 1

// client is the closed-loop caller: it hands each pre-rendered body to
// the handler in-process and checks the answer before sending the
// next. Its per-request work is fixed and allocation-light: one
// http.Request, a reused body reader and response recorder, an
// in-place name stamp (inline_cold), and byte scans of the answer.
type client struct {
	h     http.Handler
	hdr   http.Header // the (empty) request header every request shares
	rec   recorder
	rd    bodyReader
	stamp []byte
	ids   uint32
	norm  []byte
	refs  [][]byte
	doc   int // version of the edited schema the server holds
	fpInv *obs.Counter

	attempted, failed int
}

func newClient(b *benchServer, nrefs int) *client {
	return &client{
		h:     b.srv.Handler(),
		hdr:   http.Header{},
		rec:   recorder{hdr: http.Header{}},
		refs:  make([][]byte, nrefs),
		fpInv: b.reg.Counter("cache.footprint_invalidations"),
	}
}

// body returns the request body of o, stamping a fresh id into every
// name placeholder when the op has any.
func (c *client) body(o *op) []byte {
	if len(o.stamps) == 0 {
		return o.body
	}
	c.stamp = append(c.stamp[:0], o.body...)
	c.ids++
	var hex [8]byte
	for i, v := 7, c.ids; i >= 0; i, v = i-1, v>>4 {
		hex[i] = "0123456789abcdef"[v&15]
	}
	for _, off := range o.stamps {
		copy(c.stamp[off:], hex[:])
	}
	return c.stamp
}

// serve sends o to the handler and returns the handler's wall time.
func (c *client) serve(o *op) time.Duration {
	body := c.body(o)
	c.rd.Reset(body)
	c.rec.reset()
	method := http.MethodPost
	if o.kind == opPut {
		method = http.MethodPut
	}
	req := &http.Request{Method: method, URL: o.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Body: &c.rd, ContentLength: int64(len(body)), Host: "perfbench",
		RemoteAddr: "127.0.0.1:1", RequestURI: o.url.Path}
	start := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	return time.Since(start)
}

// do serves and checks one op.
func (c *client) do(o *op) time.Duration {
	var before int64
	if o.untouched {
		before = c.fpInv.Value()
	}
	d := c.serve(o)
	c.attempted++
	if err := c.check(o, c.rec.code, c.rec.body.Bytes(), before); err != nil {
		c.fail(o, err)
	}
	return d
}

func (c *client) fail(o *op, err error) {
	c.failed++
	if c.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s op on %s failed: %v\n", opNames[o.kind], o.class, err)
	}
}

var opNames = [...]string{opImplies: "implies", opExplain: "explain", opBatch: "batch", opPut: "put"}

// check verifies one answer: status 200; every verdict equal to the
// oracle's for the schema version the server holds; a repeat
// byte-identical to the first answer apart from request_id and
// elapsed_us; an edit of an untouched relation evicting nothing.
func (c *client) check(o *op, code int, body []byte, fpBefore int64) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	switch o.kind {
	case opPut:
		if o.untouched {
			n, _ := scanInt(body, `"invalidated":`)
			if n != 0 || c.fpInv.Value() != fpBefore {
				return fmt.Errorf("edit of an untouched relation invalidated %d answers", n)
			}
		}
		c.doc = o.putDoc
		return nil
	case opBatch:
		rest := body
		for i, want := range o.wantFor(c.doc) {
			var v []byte
			var status int64
			v, rest = scanString(rest, `"verdict":"`)
			status, rest = scanInt(rest, `"status":`)
			if string(v) != want || status != http.StatusOK {
				return fmt.Errorf("goal %d: verdict %q status %d, want %q", i, v, status, want)
			}
		}
		return nil
	}
	if v, _ := scanString(body, `"verdict":"`); string(v) != o.wantFor(c.doc)[0] {
		return fmt.Errorf("verdict %q, want %q: %.300s", v, o.wantFor(c.doc)[0], body)
	}
	if o.ref >= 0 {
		c.norm = normalize(c.norm[:0], body)
		if ref := c.refs[o.ref]; ref == nil {
			c.refs[o.ref] = append([]byte(nil), c.norm...)
		} else if !bytes.Equal(ref, c.norm) {
			return fmt.Errorf("answer differs from its first: %.300s", body)
		}
	}
	return nil
}

// scanString returns the string value following key and the rest of
// b after it (nil, nil when key is absent).
func scanString(b []byte, key string) ([]byte, []byte) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, nil
	}
	b = b[i+len(key):]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return nil, nil
	}
	return b[:j], b[j+1:]
}

// scanInt returns the integer value following key and the rest of b.
func scanInt(b []byte, key string) (int64, []byte) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return -1, nil
	}
	b = b[i+len(key):]
	j, n := 0, int64(0)
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		n = n*10 + int64(b[j]-'0')
		j++
	}
	if j == 0 {
		return -1, nil
	}
	return n, b[j:]
}

// normalize appends body to dst with the values of request_id and
// elapsed_us blanked — the only fields a cache hit may change.
func normalize(dst, body []byte) []byte { return blank(dst, body, false) }

// blank appends body to dst with the values of request_id and
// elapsed_us blanked, and those of explanation too when explanations
// is set.
func blank(dst, body []byte, explanations bool) []byte {
	for len(body) > 0 {
		i := bytes.IndexByte(body, '"')
		if i < 0 {
			break
		}
		dst = append(dst, body[:i]...)
		body = body[i:]
		switch {
		case bytes.HasPrefix(body, []byte(`"request_id":"`)):
			n := len(`"request_id":"`)
			dst = append(dst, body[:n]...)
			body = body[n:]
			end := bytes.IndexByte(body, '"')
			if end < 0 {
				return append(dst, body...)
			}
			dst = append(dst, '"')
			body = body[end+1:]
		case bytes.HasPrefix(body, []byte(`"elapsed_us":`)):
			n := len(`"elapsed_us":`)
			dst = append(dst, body[:n]...)
			body = body[n:]
			for len(body) > 0 && body[0] >= '0' && body[0] <= '9' {
				body = body[1:]
			}
		case explanations && bytes.HasPrefix(body, []byte(`"explanation":"`)):
			n := len(`"explanation":"`)
			dst = append(dst, body[:n]...)
			j := n
			for j < len(body) && body[j] != '"' {
				if body[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, '"')
			body = body[min(j+1, len(body)):]
		default:
			// Copy the whole string token so a key inside a string
			// value is never mistaken for a field.
			j := 1
			for j < len(body) && body[j] != '"' {
				if body[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(body))
			dst = append(dst, body[:j]...)
			body = body[j:]
		}
	}
	return append(dst, body...)
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }
