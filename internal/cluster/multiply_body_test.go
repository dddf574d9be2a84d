package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/matrix"
	"repro/internal/serve"
)

// chunked hides a reader's length from net/http, so the request goes out
// with Transfer-Encoding: chunked and no Content-Length.
type chunked struct{ io.Reader }

// TestMultiplyPlansBeforeBuffering: the router looks the matrix up before it
// buffers a multiply's body and holds the body to the matrix's panel. An
// unknown ID is a 404 that allocates nothing body-sized; a declared length
// that is not cols*k*8 (or a k that is no positive integer) is a 400 and an
// undeclared one that runs long a 413, each before any replica is asked; the
// exact panel, declared or chunked, is served.
func TestMultiplyPlansBeforeBuffering(t *testing.T) {
	const k = 4
	tc := newTestCluster(t, 2, nil)
	m := tc.registerMatrices(1)[0]
	b := matrix.NewDenseRand[float64](m.reg.Cols, k, 5)
	var wire bytes.Buffer
	if err := serve.WritePanel(&wire, b, k); err != nil {
		t.Fatal(err)
	}
	panel := wire.Bytes()
	long := append(bytes.Clone(panel), 0, 0, 0, 0, 0, 0, 0, 0)
	post := func(id, k string, body io.Reader) int {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("%s/v1/matrices/%s/multiply?k=%s", tc.front.URL, id, k), "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	huge := make([]byte, 10<<20)
	post("feedfacefeedface", "4", bytes.NewReader(panel)) // connection and handler warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := post("feedfacefeedface", "4", bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; code != http.StatusNotFound || grew > 1<<20 {
		t.Fatalf("unknown matrix with a %d-byte body: status %d, %d bytes allocated; want 404 and no buffer", len(huge), code, grew)
	}

	proxied := func() (n int64) {
		for _, rep := range tc.router.ClusterStats().Replicas {
			n += rep.Proxied
		}
		return n
	}
	quiet := proxied()
	for _, tc := range []struct {
		name, k string
		body    io.Reader
		want    int
	}{
		{"one value long", "4", bytes.NewReader(long), http.StatusBadRequest},
		{"one byte short", "4", bytes.NewReader(panel[:len(panel)-1]), http.StatusBadRequest},
		{"empty", "4", bytes.NewReader(nil), http.StatusBadRequest},
		{"k=0", "0", bytes.NewReader(panel), http.StatusBadRequest},
		{"k=x", "x", bytes.NewReader(panel), http.StatusBadRequest},
		{"chunked, one value long", "4", chunked{bytes.NewReader(long)}, http.StatusRequestEntityTooLarge},
	} {
		if got := post(m.reg.ID, tc.k, tc.body); got != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := proxied(); got != quiet {
		t.Fatalf("%d replica attempts were made for malformed multiplies", got-quiet)
	}
	for name, body := range map[string]io.Reader{"exact": bytes.NewReader(panel), "chunked exact": chunked{bytes.NewReader(panel)}} {
		if got := post(m.reg.ID, "4", body); got != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", name, got)
		}
	}
}

// TestRoutedMultiplyRoundTripBytes is serve's TestMultiplyRoundTripBytes
// through the router (the benchmark's cluster-routed shape): of the six
// panel-sized buffers a routed multiply used to allocate, only the client's
// caller-owned C is left, beside net/http's copy buffers on both hops.
func TestRoutedMultiplyRoundTripBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("an allocation pin for tier-1; check.sh runs -short under the race detector, where it means nothing")
	}
	const k, warm, n = 32, 50, 200
	tc := newTestCluster(t, 2, nil)
	reg, err := tc.client.Register(serve.RegisterRequest{Name: "dw4096", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 1)
	multiply := func() {
		if _, err := tc.client.Multiply(reg.ID, reg.Rows, b, k, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		multiply()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		multiply()
	}
	runtime.ReadMemStats(&after)
	perReq, objects := float64(after.TotalAlloc-before.TotalAlloc)/n, float64(after.Mallocs-before.Mallocs)/n
	t.Logf("%.0f B and %.1f objects per routed round trip", perReq, objects)
	if perReq > 260000 || objects > 256 {
		t.Fatalf("one routed multiply allocates %.0f B in %.1f objects, want at most 260000 B in 256", perReq, objects)
	}
}
