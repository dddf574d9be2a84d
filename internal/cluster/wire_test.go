package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/wiretest"
)

// TestRoutedMultiplyResponseHeadsUnchanged is serve's
// TestMultiplyResponseHeadsUnchanged through the router: the response heads
// of routed multiplies — relayed replica headers, X-Spmm-Replica,
// Content-Length — as net/http put them on the wire, held to the ones
// recorded before the router's header values were interned. Regenerate with
// -args -write-wire only for an intended wire change.
func TestRoutedMultiplyResponseHeadsUnchanged(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) { c.AttemptTimeout = 0 })
	reg, err := tc.client.Register(serve.RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	multiply := func(name string, k int, chunked bool, header ...string) {
		path := "/v1/matrices/" + reg.ID + "/multiply?k=" + strconv.Itoa(k)
		fmt.Fprintf(&got, "== %s\n%s", name, wiretest.RawHead(t, tc.front.URL, path, header, make([]byte, reg.Cols*k*8), chunked, serve.HeaderTiming))
	}
	multiply("clean k=4", 4, false)
	multiply("clean k=4 chunked", 4, true)
	multiply("clean k=4 deadline", 4, false, serve.HeaderDeadlineMs+": 5000")
	if _, err := tc.client.Mutate(reg.ID, []serve.MutateOp{{Row: 1, Col: 2, Val: 3.5}}); err != nil {
		t.Fatal(err)
	}
	multiply("mutated k=4", 4, false)

	// A traced router propagates the client's request ID and answers with it.
	traced := newTestCluster(t, 2, func(c *Config) { c.AttemptTimeout, c.ReqTraceRing = 0, 8 })
	treg, err := traced.client.Register(serve.RegisterRequest{Name: "dw4096", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "== traced k=4\n%s", wiretest.RawHead(t, traced.front.URL, "/v1/matrices/"+treg.ID+"/multiply?k=4",
		[]string{serve.HeaderRequestID + ": wire-test-1"}, make([]byte, treg.Cols*4*8), false, serve.HeaderTiming))
	wiretest.CheckGolden(t, "testdata/routed_multiply_heads.golden", got.String())
}
