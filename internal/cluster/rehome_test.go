package cluster

import (
	"testing"
	"time"

	"repro/internal/serve"
)

// refusePrepare makes a replica fail every warm-up with a 500 — the copy
// lands, the warm-up does not, so the move must not cut over.
func refusePrepare(tr *testReplica) {
	tr.gate.script("/prepare", answer{status: 500})
}

// assertRolledBack is DESIGN §11's failed-move guarantee, the same from
// every caller of rehome: no pin is left, the target holds nothing, the
// move counters did not tick, and every matrix still serves bitwise-equal
// panels from a holder that is not the target.
func assertRolledBack(t *testing.T, tc *testCluster, mats []*testMatrix, target string, before Stats) {
	t.Helper()
	tc.router.mu.Lock()
	for id, e := range tc.router.entries {
		if e.pinned != "" {
			t.Errorf("matrix %s still pinned to %s after the failed move", id, e.pinned)
		}
		if e.holdsLocked(target) {
			t.Errorf("matrix %s lists %s as a holder though its warm-up failed", id, target)
		}
	}
	tc.router.mu.Unlock()
	after := tc.clusterStats()
	if after.Moves != before.Moves || after.Replications != before.Replications {
		t.Errorf("moves %d -> %d, replications %d -> %d across failed moves",
			before.Moves, after.Moves, before.Replications, after.Replications)
	}
	if t.Failed() {
		t.FailNow()
	}
	for i, m := range mats {
		if res := tc.multiplyBoth(m, 4, int64(600+i)); res.Replica == target {
			t.Fatalf("matrix %s served by %s, which never finished its warm-up", m.reg.ID, target)
		}
	}
}

// TestRehomeRollsBack fails the target's warm-up under each of rehome's
// three callers — a join, a leave, a hot replication — and holds all three
// to the same rollback.
func TestRehomeRollsBack(t *testing.T) {
	t.Run("join", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		mats := tc.registerMatrices(12)
		before := tc.clusterStats()
		joiner := startReplica(t, "r3", nil)
		tc.replicas["r3"] = joiner
		refusePrepare(joiner)
		moved, err := tc.router.Join(JoinRequest{Name: "r3", Base: joiner.base})
		if err == nil || moved != 0 {
			t.Fatalf("join onto a replica that cannot warm up: moved %d, err %v", moved, err)
		}
		if joiner.gate.hits.Load() == 0 {
			t.Fatal("the join attempted no move; the scenario needs the joiner to own some IDs")
		}
		assertRolledBack(t, tc, mats, "r3", before)
	})

	t.Run("leave", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		m := tc.registerMatrices(1)[0]
		// Ring preference for the matrix: the leaver holds it, the target is
		// its post-leave owner, and the survivor holds a second copy — so the
		// leave has a real move to make and a holder to fall back on.
		owners := tc.router.ring.Load().Owners(m.reg.ID, 3)
		leaver, target, survivor := owners[0], owners[1], owners[2]
		if reg, err := serve.NewClient(tc.replicas[survivor].base).Register(randomTriplets(60, 45, 350, 1000)); err != nil || reg.ID != m.reg.ID {
			t.Fatalf("direct register on %s: %v %v", survivor, reg, err)
		}
		tc.router.mu.Lock()
		tc.router.entries[m.reg.ID].addHolderLocked(survivor)
		tc.router.mu.Unlock()
		before := tc.clusterStats()
		refusePrepare(tc.replicas[target])
		moved, err := tc.router.Leave(leaver)
		if err == nil || moved != 0 {
			t.Fatalf("leave whose target cannot warm up: moved %d, err %v", moved, err)
		}
		if tc.replicas[target].gate.hits.Load() == 0 {
			t.Fatal("the leave attempted no move")
		}
		assertRolledBack(t, tc, []*testMatrix{m}, target, before)
		if got := tc.clusterStats().Placements[m.reg.ID]; len(got) != 1 || got[0] != survivor {
			t.Fatalf("holders after the failed leave %v, want the survivor %s alone", got, survivor)
		}
	})

	t.Run("replicate", func(t *testing.T) {
		tc := newTestCluster(t, 2, func(cfg *Config) { cfg.ReplicateAfter = 1 })
		m := tc.registerMatrices(1)[0]
		before := tc.clusterStats()
		target := "r0"
		if before.Placements[m.reg.ID][0] == "r0" {
			target = "r1"
		}
		refusePrepare(tc.replicas[target])
		tc.multiplyBoth(m, 4, 599) // crosses ReplicateAfter: one replication attempt
		tc.router.mu.Lock()
		e := tc.router.entries[m.reg.ID]
		tc.router.mu.Unlock()
		waitFor(t, "the replication attempt to fail", func() bool {
			tc.router.mu.Lock()
			defer tc.router.mu.Unlock()
			return tc.replicas[target].gate.hits.Load() >= 1 && !e.replicating
		})
		assertRolledBack(t, tc, []*testMatrix{m}, target, before)
	})
}

// TestMoveHoldsMutationsUntilCutover: a rebalance move holds its entry's
// mutation lock from the copy through the cutover that makes the target a
// holder. A batch fanned out in between would be acked without the target,
// which would then serve the epoch before it — what
// TestRebalanceMidMutationStream caught now and then as "router serves … at
// epoch 9, want 10". The test takes the router lock, so the move stops
// right before its cutover once its warm-up returns, and requires the
// mutation lock to stay taken there.
func TestMoveHoldsMutationsUntilCutover(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.registerMatrices(12)
	joiner := startReplica(t, "r3", nil)
	tc.replicas["r3"] = joiner
	joiner.gate.script("/prepare", answer{hold: true})
	joined := make(chan error, 1)
	go func() {
		_, err := tc.router.Join(JoinRequest{Name: "r3", Base: joiner.base})
		joined <- err
	}()

	// The first move's copy is registered on the joiner and its warm-up is
	// held: that matrix is the one in flight.
	direct := serve.NewClient(joiner.base)
	var moving string
	waitFor(t, "the first copy to land on the joiner", func() bool {
		infos, err := direct.Matrices()
		if err != nil || len(infos) == 0 {
			return false
		}
		moving = infos[0].ID
		return true
	})
	gap := func() bool {
		tc.router.mu.Lock()
		defer tc.router.mu.Unlock()
		e := tc.router.entries[moving]
		joiner.gate.heal()
		waitFor(t, "the joiner's warm-up", func() bool {
			infos, err := direct.Matrices()
			return err == nil && len(infos) == 1 && infos[0].Prepared
		})
		for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if e.mutMu.TryLock() {
				e.mutMu.Unlock()
				return true
			}
		}
		return false
	}()
	if gap {
		t.Fatal("the mutation lock was free between the copy and the cutover: a batch there misses the joiner")
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
}
