package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// Health probing. The cadence runs on the router's injectable clock — a
// clock.AfterFunc rearms after every round, and its callback only kicks a
// channel (fake-clock callbacks must not block), which the prober goroutine
// drains to run the actual HTTP probes. Each probe is bounded by a REAL
// timeout: a hung replica reveals itself by a connection that never
// answers, which only wall time can observe. Tests therefore script WHEN
// rounds happen (Advance past ProbeInterval, then wait for ProbeRounds to
// tick) while each round's verdict stays deterministic.

// armProbe schedules the next probe kick on the router clock.
func (rt *Router) armProbe() {
	rt.clk.AfterFunc(rt.cfg.ProbeInterval, func() {
		select {
		case rt.probeKick <- struct{}{}:
		default:
		}
	})
}

// proberLoop runs probe rounds until Close.
func (rt *Router) proberLoop() {
	defer rt.wg.Done()
	for {
		select {
		case <-rt.stop:
			return
		case <-rt.probeKick:
		}
		rt.probeAll()
		rt.probes.Add(1)
		rt.armProbe()
	}
}

// ProbeRounds reports completed probe rounds — the synchronization point
// scripted-clock tests wait on after advancing past ProbeInterval.
func (rt *Router) ProbeRounds() int64 { return rt.probes.Load() }

// probeAll probes every replica once and applies the eject/re-admit rules:
// EjectAfter consecutive failures take a replica out of rotation, a single
// success puts it back.
func (rt *Router) probeAll() {
	rt.mu.Lock()
	reps := make([]*replica, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		reps = append(reps, rep)
	}
	rt.mu.Unlock()

	for _, rep := range reps {
		err := rt.probeOne(rep)
		rt.mu.Lock()
		if err != nil {
			rep.fails++
			rt.probeFailures.Inc()
			if !rep.down && rep.fails >= rt.cfg.EjectAfter {
				rep.down = true
				rep.stateChange = time.Now()
				rt.ejects.Inc()
				rt.log.Warn("replica ejected", "replica", rep.name, "failed_probes", rep.fails, "err", err)
			}
		} else {
			if rep.down {
				rep.down = false
				rep.stateChange = time.Now()
				rt.readmits.Inc()
				rt.log.Info("replica re-admitted", "replica", rep.name)
			}
			rep.fails = 0
		}
		rt.mu.Unlock()
	}
}

// probeOne issues one real-time-bounded /healthz probe.
func (rt *Router) probeOne(rep *replica) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s /healthz returned %d", rep.name, resp.StatusCode)
	}
	return nil
}

// ReplicaDown reports the prober's current verdict for one replica (false
// for unknown names) — a test observable.
func (rt *Router) ReplicaDown(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := rt.replicas[name]
	return ok && rep.down
}
