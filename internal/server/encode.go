package server

import (
	"net/http"
	"strconv"
	"sync"
)

// The /community and /batch answers are encoded by hand: every field is an
// integer or a list of integers, so appending them with strconv
// into a pooled buffer yields exactly the bytes encoding/json would, with
// no reflection and no per-field allocation. FuzzQueryDocEncode holds the
// two encoders to byte equality.

// renderBuf is the per-request scratch of the /community and /batch
// writers: vertex IDs copied out of the hierarchy's memo, and the body.
type renderBuf struct {
	ids  []int32
	body []byte
}

// Buffers that grew past these sizes while serving one huge answer are
// dropped instead of pooled, so one request cannot pin them for good.
const (
	maxPooledIDs  = 1 << 18
	maxPooledBody = 1 << 20
)

var renderBufs = sync.Pool{New: func() any { return new(renderBuf) }}

func getRenderBuf() *renderBuf { return renderBufs.Get().(*renderBuf) }

// release returns rb to the pool; nothing may read its slices afterwards.
func (rb *renderBuf) release() {
	if cap(rb.ids) > maxPooledIDs || cap(rb.body) > maxPooledBody {
		return
	}
	rb.ids, rb.body = rb.ids[:0], rb.body[:0]
	renderBufs.Put(rb)
}

// writeBody sends an appended JSON document with the trailing newline
// json.Encoder writes.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n'))
}

func appendQueryDoc(b []byte, d *queryDoc) []byte {
	b = append(b, `{"vertex":`...)
	b = strconv.AppendInt(b, int64(d.Vertex), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(d.K), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(d.Count), 10)
	b = append(b, `,"communities":`...)
	if d.Communities == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range d.Communities {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCommunityDoc(b, &d.Communities[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendCommunityDoc(b []byte, c *communityDoc) []byte {
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, int64(c.K), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(c.Size), 10)
	b = append(b, `,"num_edges":`...)
	b = strconv.AppendInt(b, int64(c.NumEdges), 10)
	// omitempty drops nil and empty lists alike.
	if len(c.Vertices) > 0 {
		b = appendIDList(append(b, `,"vertices":`...), c.Vertices)
	}
	if len(c.Edges) > 0 {
		b = appendIDList(append(b, `,"edges":`...), c.Edges)
	}
	return append(b, '}')
}

func appendIDList(b []byte, ids []int32) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

func appendBatchResponse(b []byte, r *batchResponse) []byte {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQueryDoc(b, &r.Results[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}
