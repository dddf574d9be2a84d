package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/serve"
)

// Rebalance without drain. A ring change (join/leave) re-homes only the IDs
// whose arc changed hands — the consistent-hashing guarantee the ring tests
// pin — and each of those IDs cuts over independently:
//
//  1. The ID is PINNED to its current primary holder. The new ring is
//     installed immediately (new registrations and unmoved IDs use it at
//     once), but the pin overrides placement for the moved ID, so requests
//     — including ones already in flight — keep completing on the old
//     owner. Nothing drains, nothing queues.
//  2. The matrix is registered on its new owner: via its generator spec
//     when it has one (a few bytes on the wire), otherwise by pulling the
//     canonical triplets from a live holder's registry-metadata export.
//     Content addressing makes this step idempotent and self-verifying —
//     the new owner must hash the upload back to the same ID.
//  3. The new owner's prepared-format cache is warmed (POST .../prepare),
//     so its first routed multiply is a cache hit, not a prepare stall.
//  4. The pin clears. From this instant plan() routes the ID to the new
//     owner; the old owner remains in the holder set as a failover
//     secondary (content addressing keeps its copy correct forever).
//
// A failure in steps 2–3 just clears the pin and leaves the old placement
// serving — the ring says the new owner, but plan() only routes to
// registered holders, so traffic never lands on a replica that missed its
// warm-up. Steps 2–4 are rehome, for a join, a leave and a hot replication
// alike.

// rehome copies e onto target (register, verify, warm) and settles the
// move: target joins the holder set, leaving (when named) drops out of it,
// and the pin clears — or, when the copy failed, the pin alone clears and
// the old placement keeps serving. It is the only code that ends a move.
func (rt *Router) rehome(e *entry, target *replica, leaving string) error {
	err := rt.moveEntry(target, e)
	rt.mu.Lock()
	if err == nil {
		e.addHolderLocked(target.name)
		if leaving != "" {
			e.dropHolderLocked(leaving)
		}
	}
	e.pinned = ""
	rt.mu.Unlock()
	if err != nil {
		rt.log.Warn("move failed", "matrix", e.id, "replica", target.name, "err", err)
		err = fmt.Errorf("cluster: move %s to %s: %w", e.id, target.name, err)
	}
	return err
}

// move is one pending re-home of a ring change.
type move struct {
	e      *entry
	target *replica
}

// rehomeAll runs a ring change's moves one by one and reports how many
// landed, each counted in moves.
func (rt *Router) rehomeAll(moves []move, leaving string) (int, error) {
	count := 0
	var lastErr error
	for _, m := range moves {
		if err := rt.rehome(m.e, m.target, leaving); err != nil {
			lastErr = err
			continue
		}
		count++
		rt.moves.Inc()
	}
	return count, lastErr
}

// Join adds a replica to the fleet and re-homes the matrix IDs the new
// ring assigns to it, warming each before cutover. It returns how many IDs
// moved. Requests keep flowing throughout.
func (rt *Router) Join(spec JoinRequest) (int, error) {
	if spec.Name == "" || spec.Base == "" {
		return 0, fmt.Errorf("cluster: join needs name and base, got %+v", spec)
	}
	rt.mu.Lock()
	if _, dup := rt.replicas[spec.Name]; dup {
		rt.mu.Unlock()
		return 0, fmt.Errorf("cluster: replica %q already joined", spec.Name)
	}
	rep := rt.newReplicaLocked(spec)
	rt.replicas[spec.Name] = rep
	old := rt.ring.Load()
	next := old.With(spec.Name)
	var moved []move
	for id, e := range rt.entries {
		if next.Owner(id) != old.Owner(id) {
			if len(e.holders) > 0 {
				e.pinned = e.holders[0]
			}
			moved = append(moved, move{e, rep})
		}
	}
	rt.ring.Store(next)
	rt.mu.Unlock()
	rt.log.Info("replica joined", "replica", spec.Name, "ring", next.Members(), "moves", len(moved))
	return rt.rehomeAll(moved, "")
}

// Leave gracefully removes a replica: every matrix it holds is re-homed to
// its post-leave ring owner (pulled from the leaver while it is still up if
// no other holder exists), then the replica drops out of the ring and the
// fleet. Returns how many IDs were re-homed onto a new owner.
func (rt *Router) Leave(name string) (int, error) {
	rt.mu.Lock()
	if _, ok := rt.replicas[name]; !ok {
		rt.mu.Unlock()
		return 0, fmt.Errorf("cluster: unknown replica %q", name)
	}
	old := rt.ring.Load()
	next := old.Without(name)
	if next.Len() == 0 {
		rt.mu.Unlock()
		return 0, fmt.Errorf("cluster: cannot remove the last replica %q", name)
	}
	var moved []move
	for id, e := range rt.entries {
		if !e.holdsLocked(name) {
			continue
		}
		target := rt.replicas[next.Owner(id)]
		if target == nil || e.holdsLocked(target.name) {
			// Another holder owns it post-leave: just drop the leaver.
			e.dropHolderLocked(name)
			continue
		}
		// Pin to a surviving holder if one exists, else keep serving from
		// the leaver (still up — this is the graceful path) until warm.
		pin := name
		for _, h := range e.holders {
			if h != name {
				pin = h
				break
			}
		}
		e.pinned = pin
		moved = append(moved, move{e, target})
	}
	rt.ring.Store(next)
	rt.mu.Unlock()
	rt.log.Info("replica leaving", "replica", name, "ring", next.Members(), "moves", len(moved))

	count, err := rt.rehomeAll(moved, name)

	rt.mu.Lock()
	delete(rt.replicas, name)
	// Any remaining references (moves that failed) lose the leaver too —
	// plan() must never route to a removed replica.
	for _, e := range rt.entries {
		e.dropHolderLocked(name)
	}
	rt.mu.Unlock()
	return count, err
}

// maybeReplicate kicks off hot replication when an entry's serve count
// crosses the threshold and it still has holder headroom. The copy happens
// off the request path; concurrent triggers collapse onto one attempt.
func (rt *Router) maybeReplicate(e *entry) {
	if rt.cfg.ReplicateAfter <= 0 || e.serves.Load() < rt.cfg.ReplicateAfter {
		return
	}
	ring := rt.ring.Load()
	rt.mu.Lock()
	var target *replica
	if !e.replicating && len(e.holders) < rt.cfg.MaxHolders {
		for _, n := range ring.Owners(e.id, ring.Len()) {
			if rep, ok := rt.replicas[n]; ok && !e.holdsLocked(n) && !rep.down {
				target = rep
				break
			}
		}
		e.replicating = target != nil
	}
	rt.mu.Unlock()
	if target == nil {
		return
	}

	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		err := rt.rehome(e, target, "")
		rt.mu.Lock()
		e.replicating = false
		rt.mu.Unlock()
		if err == nil {
			rt.replications.Inc()
			rt.log.Info("hot matrix replicated", "matrix", e.id, "replica", target.name)
		}
	}()
}

// ensureRegistered lands the matrix on rep with its prepared-format cache
// warm: register (spec, or export-pulled triplets — for a mutated matrix
// that is the current base PLUS the pending overlay, epoch-tagged, so the
// new holder serves bitwise-identical results at the same epoch), verify
// the content address, then prepare. Idempotent — re-registering an
// existing matrix is a no-op on the replica, and prepare of a resident
// format is a hit. Callers serialize against the mutation fan-out by
// holding e.mutMu (moveEntry does), or the batch landing mid-copy would be
// missing on the new holder.
func (rt *Router) ensureRegistered(rep *replica, e *entry) error {
	rt.mu.Lock()
	mutated := e.mutated
	rt.mu.Unlock()
	var rr serve.RegisterRequest
	if e.name != "" && !mutated {
		rr = serve.RegisterRequest{Name: e.name, Scale: e.scale}
	} else {
		// Uploaded or mutated: pull the live holder's export. Once a matrix
		// has mutated, the generator spec no longer describes its content —
		// only the export does.
		exp, err := rt.pullExport(e)
		if err != nil {
			return err
		}
		rr = exp.Request()
	}
	cl := rt.client(rep)
	reg, err := cl.Register(rr)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	if reg.ID != e.id {
		return fmt.Errorf("register: replica hashed %s, want %s", reg.ID, e.id)
	}
	if _, err := cl.Prepare(e.id); err != nil {
		return fmt.Errorf("warm prepare: %w", err)
	}
	return nil
}

// moveEntry is ensureRegistered under the entry's mutation lock — every
// re-home and replication copy goes through here so no mutation batch can
// land between the export and the target's registration.
func (rt *Router) moveEntry(rep *replica, e *entry) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return rt.ensureRegistered(rep, e)
}

// pullExport fetches the canonical triplets from the first holder that
// answers, failing over like any other routed request.
func (rt *Router) pullExport(e *entry) (*serve.ExportRecord, error) {
	holders := rt.liveHolders(e)
	if len(holders) == 0 {
		return nil, fmt.Errorf("cluster: %s has no holders to export from", e.id)
	}
	// Join and Leave carry no context; the attempt timeout bounds each pull.
	rp, err := rt.forward(context.TODO(), e, holders,
		outbound{method: http.MethodGet, path: "/v1/matrices/" + e.id + "/export"}, nil)
	if err != nil {
		return nil, err
	}
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("export from %s: status %d: %s", rp.rep.name, rp.status, rp.body.Bytes())
	}
	var exp serve.ExportRecord
	if err := json.Unmarshal(rp.body.Bytes(), &exp); err != nil {
		return nil, fmt.Errorf("export from %s: %w", rp.rep.name, err)
	}
	return &exp, nil
}
