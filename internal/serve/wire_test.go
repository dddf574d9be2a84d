package serve

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve/wiretest"
)

// TestMultiplyResponseHeadsUnchanged records multiply response heads as
// net/http put them on the wire — status line, every header name and value,
// their order — and holds them to the ones recorded before the handler's
// headers were interned. Date and the timing breakdown vary run to run and
// are masked. Regenerate with -args -write-wire only for an intended wire
// change.
func TestMultiplyResponseHeadsUnchanged(t *testing.T) {
	_, client, _ := newTestServer(t, Config{Threads: 2, MaxK: 2048})
	reg, _ := registerSmall(t, client, 60, 512, 400, 7)
	_, traced, _ := newTestServer(t, Config{Threads: 2, ReqTraceRing: 8})
	treg, _ := registerSmall(t, traced, 60, 512, 400, 7)

	var got strings.Builder
	multiply := func(name string, c *Client, reg *RegisterResponse, k int, chunked bool, header ...string) {
		path := "/v1/matrices/" + reg.ID + "/multiply?k=" + strconv.Itoa(k)
		fmt.Fprintf(&got, "== %s\n%s", name, wiretest.RawHead(t, c.Base, path, header, make([]byte, reg.Cols*k*8), chunked, HeaderTiming))
	}
	multiply("clean k=4", client, reg, 4, false)
	multiply("clean k=4 chunked", client, reg, 4, true)
	multiply("clean k=4 deadline", client, reg, 4, false, HeaderDeadlineMs+": 5000")
	multiply("clean k=1100", client, reg, 1100, false)
	if _, err := client.Mutate(reg.ID, []MutateOp{{Row: 1, Col: 2, Val: 3.5}}); err != nil {
		t.Fatal(err)
	}
	multiply("mutated k=4", client, reg, 4, false)
	multiply("traced k=4", traced, treg, 4, false, HeaderRequestID+": wire-test-1")
	wiretest.CheckGolden(t, "testdata/multiply_heads.golden", got.String())
}
