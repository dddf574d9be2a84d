package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/matrix"
)

// adversarial are the values a codec that converts (rather than copies) could
// get wrong: quiet and signalling NaNs with payloads, both zeros, both
// infinities, the smallest and largest subnormals.
var adversarial = []uint64{
	0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, 0xfff4000000000000,
	0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x800fffffffffffff, 0x3ff0000000000000, 0x7fefffffffffffff,
}

// randPanel fills a rows×cols panel with a mix of adversarial and random bit
// patterns. Every element is set by bits, never through float arithmetic.
func randPanel(rng *rand.Rand, rows, cols int) *matrix.Dense[float64] {
	d := matrix.NewDense[float64](rows, cols)
	for i := range d.Data {
		bits := rng.Uint64()
		if rng.Intn(2) == 0 {
			bits = adversarial[rng.Intn(len(adversarial))]
		}
		d.Data[i] = math.Float64frombits(bits)
	}
	return d
}

// TestPanelCodecAgainstReference holds the bulk codec to the per-element one
// over random shapes — empty in either dimension, the first k of more
// columns, column-offset views, compact panels — and adversarial values:
// panelWire's bytes are the reference encoder's (and the spec's: little-endian
// IEEE bits, row-major), and a panel survives WritePanel → ReadPanel bit for
// bit.
func TestPanelCodecAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for iter := 0; iter < 400; iter++ {
		rows, cols := rng.Intn(9), rng.Intn(9)
		d := randPanel(rng, rows, cols)
		shape := fmt.Sprintf("iter %d: %dx%d", iter, rows, cols)
		if cols > 0 && rng.Intn(2) == 0 {
			c0 := rng.Intn(cols)
			r0 := rng.Intn(rows + 1)
			v, err := d.View(r0, c0, rows-r0, cols-c0)
			if err != nil {
				t.Fatal(err)
			}
			d = v
			shape += fmt.Sprintf(" view(r0=%d, c0=%d)", r0, c0)
		}
		k := d.Cols
		if rng.Intn(3) == 0 {
			k = rng.Intn(d.Cols + 1)
		}
		shape += fmt.Sprintf(" k=%d", k)

		want := make([]byte, 0, d.Rows*k*8)
		for i := 0; i < d.Rows; i++ {
			for j := 0; j < k; j++ {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(d.At(i, j)))
			}
		}
		ref := make([]byte, len(want))
		if encodeRows(ref, d, 0, k); !bytes.Equal(ref, want) {
			t.Fatalf("%s: reference encoder disagrees with the wire spec", shape)
		}
		got, err := panelWire(d, k)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: panelWire differs from the reference encoder", shape)
		}

		var buf bytes.Buffer
		if err := WritePanel(&buf, d, k); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		back, err := ReadPanel(&buf, d.Rows, k)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if back.Rows != d.Rows || back.Cols != k || back.Stride != k {
			t.Fatalf("%s: decoded a %dx%d stride-%d panel", shape, back.Rows, back.Cols, back.Stride)
		}
		for i := 0; i < d.Rows; i++ {
			for j := 0; j < k; j++ {
				if g, w := math.Float64bits(back.At(i, j)), math.Float64bits(d.At(i, j)); g != w {
					t.Fatalf("%s: [%d][%d] round-tripped %#x to %#x", shape, i, j, w, g)
				}
			}
		}
	}

	d := matrix.NewDense[float64](3, 4)
	for _, k := range []int{-1, 5} {
		if _, err := panelWire(d, k); err == nil {
			t.Fatalf("panelWire accepted k=%d on a 4-column panel", k)
		}
	}
	if _, err := ReadPanel(bytes.NewReader(nil), -1, 2); err == nil {
		t.Fatal("ReadPanel accepted a negative shape")
	}
}

// writeLog records the size of every Write it receives.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestWritePanelShapes: a panel that is its own wire form is one Write
// however large; a strided one larger than the scratch goes out in whole-row
// pieces no larger than the scratch, and the bytes are the reference's either
// way.
func TestWritePanelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const rows, k = 700, 32 // 179 200 bytes: between two and three scratches
	wide := randPanel(rng, rows, 3*k)
	strided, err := wide.View(0, k, rows, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		d      *matrix.Dense[float64]
		writes int
	}{
		{"compact", randPanel(rng, rows, k), 1},
		{"strided", strided, 3},
		{"first k of more columns, small", randPanel(rng, 9, k+1), 1},
	} {
		want := make([]byte, tc.d.Rows*k*8)
		encodeRows(want, tc.d, 0, k)
		var w writeLog
		if err := WritePanel(&w, tc.d, k); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%s: wrote bytes that differ from the reference encoder's", tc.name)
		}
		if len(w.sizes) != tc.writes {
			t.Fatalf("%s: %d Writes %v, want %d", tc.name, len(w.sizes), w.sizes, tc.writes)
		}
		for _, n := range w.sizes {
			if tc.writes > 1 && (n > wireChunk || n%(k*8) != 0) {
				t.Fatalf("%s: a %d-byte Write is not whole rows within the %d-byte scratch", tc.name, n, wireChunk)
			}
		}
	}
	if err := WritePanel(io.Discard, wide, 3*k+1); err == nil {
		t.Fatal("WritePanel accepted k beyond the panel's columns")
	}
}

// TestPanelShortStream: a stream that ends early fails, names the row it
// stopped in, and wraps the reader's error.
func TestPanelShortStream(t *testing.T) {
	const rows, k = 5, 3
	wire, err := panelWire(matrix.NewDenseRand[float64](rows, k, 7), k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		have int
		row  string
		is   error
	}{
		{0, "row 0", io.EOF},
		{2*k*8 + 4, "row 2", io.ErrUnexpectedEOF},
		{2 * k * 8, "row 2", io.ErrUnexpectedEOF},
		{rows*k*8 - 1, "row 4", io.ErrUnexpectedEOF},
	} {
		_, err := ReadPanel(bytes.NewReader(wire[:tc.have]), rows, k)
		if err == nil || !strings.Contains(err.Error(), tc.row) || !errors.Is(err, tc.is) {
			t.Fatalf("%d of %d bytes: err = %v, want one naming %s and wrapping %v", tc.have, len(wire), err, tc.row, tc.is)
		}
	}
}

// TestPanelCodecAllocs pins the codec's allocation budget: a compact panel is
// written from its own storage (nothing staged), a strided one through one
// bounded scratch leased from the panel pool, the server's leased read
// allocates nothing in steady state, and the exported read allocates the
// caller-owned Dense and its Data and nothing else.
func TestPanelCodecAllocs(t *testing.T) {
	// sync.Pool drops a quarter of its Puts under the race detector, so the
	// leased paths are only pinned to zero without it.
	leasedWant := 0.0
	if raceBuild {
		leasedWant = 2
	}
	const rows, k = 410, 32
	d := matrix.NewDenseRand[float64](rows, k, 3)
	var buf bytes.Buffer
	buf.Grow(rows * k * 8)
	if n := testing.AllocsPerRun(50, func() {
		buf.Reset()
		if err := WritePanel(&buf, d, k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WritePanel of a compact panel allocates %v times, want 0", n)
	}
	wide := matrix.NewDenseRand[float64](rows, 2*k, 4)
	strided, err := wide.View(0, k, rows, k)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		buf.Reset()
		if err := WritePanel(&buf, strided, k); err != nil {
			t.Fatal(err)
		}
	}); n > leasedWant {
		t.Fatalf("WritePanel of a strided panel allocates %v times, want 0 (the scratch is leased)", n)
	}
	rd := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(buf.Bytes())
		l := leasePanel(rows, k)
		if err := fillPanel(rd, &l.panel); err != nil {
			t.Fatal(err)
		}
		l.Release()
	}); n > leasedWant {
		t.Fatalf("a leased panel read allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(buf.Bytes())
		if _, err := ReadPanel(rd, rows, k); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("ReadPanel allocates %v times, want 2 (the Dense and its Data)", n)
	}
}

// chunked hides a reader's length from net/http, so the request goes out
// with Transfer-Encoding: chunked and no Content-Length.
type chunked struct{ io.Reader }

// TestMultiplyBodySize: a multiply body whose declared length is not exactly
// the panel is a 400 that never takes an admission slot; an undeclared
// (chunked) length is held to the panel size by the read itself.
func TestMultiplyBodySize(t *testing.T) {
	const k = 4
	_, client, _ := newTestServer(t, Config{Threads: 1})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	panel, err := panelWire(matrix.NewDenseRand[float64](reg.Cols, k, 5), k)
	if err != nil {
		t.Fatal(err)
	}
	long := append(append([]byte(nil), panel...), 0, 0, 0, 0, 0, 0, 0, 0)
	url := fmt.Sprintf("%s/v1/matrices/%s/multiply?k=%d", client.Base, reg.ID, k)
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"exact", bytes.NewReader(panel), http.StatusOK},
		{"one value long", bytes.NewReader(long), http.StatusBadRequest},
		{"one byte long", bytes.NewReader(long[:len(panel)+1]), http.StatusBadRequest},
		{"one byte short", bytes.NewReader(panel[:len(panel)-1]), http.StatusBadRequest},
		{"empty", bytes.NewReader(nil), http.StatusBadRequest},
		{"chunked exact", chunked{bytes.NewReader(panel)}, http.StatusOK},
		{"chunked short", chunked{bytes.NewReader(panel[:len(panel)-8])}, http.StatusBadRequest},
	} {
		resp, err := client.http().Post(url, "application/octet-stream", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK && n != int64(reg.Rows*k*8) {
			t.Fatalf("%s: reply is %d bytes, want %d", tc.name, n, reg.Rows*k*8)
		}
	}

	// On a server with its one slot held and no queue, a well-formed request
	// is shed (429) but a malformed one is still a 400: the size check runs
	// before admission, so it can never take a slot.
	full, fullClient, _ := newTestServer(t, Config{
		Threads: 1, MaxInFlight: 1, QueueDepth: -1, BatchWindow: time.Hour, Clock: clock.NewFake(),
	})
	if _, err := fullClient.Register(RegisterRequest{Name: "dw4096", Scale: 0.02}); err != nil {
		t.Fatal(err)
	}
	release := holdDispatch(t, full, reg.ID)
	url = fmt.Sprintf("%s/v1/matrices/%s/multiply?k=%d", fullClient.Base, reg.ID, k)
	holder := make(chan error, 1)
	go func() {
		resp, err := fullClient.http().Post(url, "application/octet-stream", bytes.NewReader(panel))
		if err == nil {
			resp.Body.Close()
		}
		holder <- err
	}()
	waitFor(t, "holder parked behind the held dispatch", func() bool { return full.pendingBatch(reg.ID) == 1 })
	for _, tc := range []struct {
		body []byte
		want int
	}{{panel, http.StatusTooManyRequests}, {long, http.StatusBadRequest}} {
		resp, err := fullClient.http().Post(url, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("full server: a %d-byte body got %d, want %d", len(tc.body), resp.StatusCode, tc.want)
		}
	}
	release()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
}

// TestClientMultiplyWrongRows: a caller that passes the wrong row count gets
// an error, not a prefix of the reply.
func TestClientMultiplyWrongRows(t *testing.T) {
	const k = 4
	_, client, _ := newTestServer(t, Config{Threads: 1})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 9)
	// Each multiply leases three panels of one class (the matrix is square):
	// the client's body, the server's B and its C. The transport's write loop
	// closes the body, and so releases it last, when it gets there — maybe
	// after Multiply returned — so the test waits for all of them: a release
	// left over would land in the next test's pool counters
	// (TestLeaseLifecycle).
	probe := leasePanel(reg.Cols, k)
	class := int64(cap(probe.panel.Data) * 8)
	probe.Release()
	recycled := panels.recycled.Value()
	if _, err := client.Multiply(reg.ID, reg.Rows, b, k, 0); err != nil {
		t.Fatal(err)
	}
	wrong := []int{reg.Rows - 1, reg.Rows + 1, 0}
	for _, rows := range wrong {
		res, err := client.Multiply(reg.ID, rows, b, k, 0)
		if err == nil {
			t.Fatalf("rows=%d against a %d-row matrix returned a %dx%d panel and no error", rows, reg.Rows, res.C.Rows, res.C.Cols)
		}
		if !strings.Contains(err.Error(), "row count") {
			t.Fatalf("rows=%d: error %q does not say what is wrong", rows, err)
		}
	}
	waitFor(t, "every panel the multiplies leased back in the pool", func() bool {
		return panels.recycled.Value() >= recycled+3*int64(1+len(wrong))*class
	})
}
