package serve

import (
	"encoding/binary"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/obs"
)

// The panel pool. Every panel-sized buffer on the data path is a Lease drawn
// from here (DESIGN.md section 8, "Buffer ownership"): []float64 storage in
// power-of-two classes of 4 KiB … 32 MiB, one sync.Pool each; anything
// larger is a plain make and never pooled. A lease is reference-counted; the
// last Release recycles it, and a reference nobody releases just leaves the
// buffer to the collector. Recycled storage is not zeroed: codecs overwrite
// it whole and kernels clear every C row they write.
const (
	minClassLog = 9  // 512 float64s
	maxClassLog = 22 // 4 Mi float64s
	// poisonBits, a signalling NaN, is what a -race build leaves in released
	// storage: a late reader becomes a bitwise mismatch instead of luck.
	poisonBits = 0x7ff4dead0000beef
)

var panels struct {
	class                  [maxClassLog - minClassLog + 1]sync.Pool
	hits, misses, recycled obs.Counter
}

// Lease is one pooled buffer, seen as the compact panel it was leased for or
// as bytes.
type Lease struct {
	panel matrix.Dense[float64] // Data is the head of the class's storage
	n     int                   // bytes leased
	class int                   // index into panels.class; -1: too large to pool
	refs  atomic.Int32
}

// leasePanel returns a rows×cols panel of arbitrary contents, one reference.
func leasePanel(rows, cols int) *Lease {
	floats := rows * cols
	class := max(bits.Len(uint(max(floats, 1)-1)), minClassLog) - minClassLog
	var l *Lease
	if class >= len(panels.class) {
		l = &Lease{class: -1}
		l.panel.Data = make([]float64, floats)
	} else if l, _ = panels.class[class].Get().(*Lease); l != nil {
		panels.hits.Inc()
	} else {
		panels.misses.Inc()
		l = &Lease{class: class}
		l.panel.Data = make([]float64, 1<<(class+minClassLog))
	}
	l.panel = matrix.Dense[float64]{Rows: rows, Cols: cols, Stride: cols, Data: l.panel.Data[:floats]}
	l.n = floats * 8
	l.refs.Store(1)
	return l
}

// LeaseBytes returns n bytes of arbitrary contents, one reference.
func LeaseBytes(n int) *Lease {
	l := leasePanel(1, (n+7)/8)
	l.n = n
	return l
}

// Bytes views the lease's storage as bytes.
func (l *Lease) Bytes() []byte { return floatBytes(l.panel.Data)[:l.n] }

// retain adds a reference for one more holder.
func (l *Lease) retain() {
	if l.refs.Add(1) <= 1 {
		panic("serve: lease retained after its last release")
	}
}

// Release drops a reference (of a nil lease: nothing). The last one recycles
// the storage, which no holder may touch afterwards.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	switch refs := l.refs.Add(-1); {
	case refs < 0:
		panic("serve: lease released more often than it was retained")
	case refs > 0 || l.class < 0:
		return
	}
	raw := floatBytes(l.panel.Data[:cap(l.panel.Data)])
	if raceBuild {
		for i := 0; i < len(raw); i += 8 {
			binary.NativeEndian.PutUint64(raw[i:], poisonBits)
		}
	}
	panels.recycled.Add(int64(len(raw)))
	panels.class[l.class].Put(l)
}

// SetBody makes the lease's bytes the body of req. Every body net/http draws
// — the first, and GetBody's for a keep-alive replay — holds a reference of
// its own until the transport closes it.
func (l *Lease) SetBody(req *http.Request) {
	if l == nil || l.n == 0 {
		return
	}
	req.ContentLength = int64(l.n)
	req.GetBody = func() (io.ReadCloser, error) {
		l.retain()
		return &leaseBody{l: l, rest: l.Bytes()}, nil
	}
	req.Body, _ = req.GetBody()
}

// leaseBody is a request body over a lease. The transport closes a body when
// it is done with it — maybe after Do returned (a server answered before
// reading), maybe twice, maybe while its write loop is still in Read (a
// cancelled attempt) — so Close releases once, a later Read fails instead of
// touching recycled storage, and the lock is only ever held over a copy.
type leaseBody struct {
	mu   sync.Mutex
	l    *Lease // nil once closed
	rest []byte
}

func (b *leaseBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.l == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	if len(b.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

func (b *leaseBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.l.Release()
	b.l, b.rest = nil, nil
	return nil
}
