package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Whole-body reads of dataset pages. A page is hundreds of kilobytes,
// read once per request by the client and once per node by the cluster
// router; io.ReadAll grows its buffer by doubling from 512 bytes and
// throws it away, which made the buffers — not the parsing — the largest
// allocation of a page. Bodies are read into pooled buffers instead,
// sized from Content-Length when the peer declares one.

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps one freak response from pinning its buffer in the
// pool forever; a 1000-trace page of day-long chunks is well under it.
const maxPooledBody = 16 << 20

// GetBuffer hands out an empty pooled buffer; PutBuffer takes it back
// once nothing references its bytes any more.
func GetBuffer() *bytes.Buffer {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// PutBuffer returns a buffer to the pool; nil is a no-op.
func PutBuffer(buf *bytes.Buffer) {
	if buf != nil && buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// The upload path's transient byte slices — a request line until its
// chunk is parsed, a commit payload until its frame is written — go
// back to bytePool instead of to the collector.
var bytePool = sync.Pool{New: func() any { return new([]byte) }}

func getBytes() *[]byte { return bytePool.Get().(*[]byte) }

// putBytes returns b to the pool emptied; nil is a no-op.
func putBytes(b *[]byte) {
	if b != nil && cap(*b) <= maxPooledBody {
		*b = (*b)[:0]
		bytePool.Put(b)
	}
}

// ReadBody reads the whole response body into a pooled buffer (release
// it with PutBuffer) and refuses, rather than truncates, a body longer
// than limit bytes.
func ReadBody(resp *http.Response, limit int64) (*bytes.Buffer, error) {
	buf := GetBuffer()
	if n := resp.ContentLength; n > 0 && n <= limit {
		// ReadFrom wants MinRead spare bytes before the read that sees
		// EOF, or it regrows an exactly-sized buffer.
		buf.Grow(int(n) + bytes.MinRead)
	}
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
	if err == nil && n > limit {
		err = fmt.Errorf("response body exceeds %d bytes", limit)
	}
	if err != nil {
		PutBuffer(buf)
		return nil, err
	}
	return buf, nil
}
