package cluster

// Control-plane wire types for the router's own endpoints (/v1/cluster*).
// The data plane — register, multiply, stats — reuses internal/serve's
// protocol verbatim: a serve.Client pointed at the router works unchanged,
// which is what lets cmd/spmmload drive a cluster and a single node with
// the same code.

// JoinRequest adds a replica to the ring (POST /v1/cluster/join).
type JoinRequest struct {
	// Name is the replica's stable ring identity. Placement hashes names,
	// not addresses, so a replica restarting on a new port keeps its arcs.
	Name string `json:"name"`
	// Base is the replica's URL root, e.g. "http://127.0.0.1:9001".
	Base string `json:"base"`
}

// JoinResponse reports the rebalance a join triggered.
type JoinResponse struct {
	// Moved is how many matrix IDs re-homed onto the joined replica —
	// each one registered and cache-warmed on it before its ring cutover.
	Moved int `json:"moved"`
	// Matrices is the cluster's total registered-matrix count, the
	// denominator of the minimal-disruption guarantee.
	Matrices int      `json:"matrices"`
	Ring     []string `json:"ring"`
}

// LeaveRequest gracefully removes a replica (POST /v1/cluster/leave):
// matrices it solely holds are re-homed (pulled while it is still up)
// before it leaves the ring.
type LeaveRequest struct {
	Name string `json:"name"`
}

// LeaveResponse reports the rebalance a leave triggered.
type LeaveResponse struct {
	Moved int      `json:"moved"`
	Ring  []string `json:"ring"`
}

// ReplicaStats is one replica's view in the cluster snapshot.
type ReplicaStats struct {
	Name string `json:"name"`
	Base string `json:"base"`
	// Down reports the health prober's current verdict.
	Down bool `json:"down"`
	// Matrices is how many registered IDs this replica holds.
	Matrices int `json:"matrices"`
	// InFlight is the router's count of proxied requests currently
	// outstanding against the replica — the load signal spillover reads.
	InFlight int64 `json:"in_flight"`
	// Proxied / Errors are per-replica proxy totals.
	Proxied int64 `json:"proxied"`
	Errors  int64 `json:"errors"`
	// Failovers counts requests this replica served after an earlier
	// candidate in the plan had already failed.
	Failovers int64 `json:"failovers"`
	// ProbeFails is the replica's current consecutive-probe-failure count
	// (EjectAfter of them take it out of rotation).
	ProbeFails int `json:"probe_fails"`
	// SinceStateChangeSec is how long ago the health prober last flipped
	// this replica's up/down verdict (or since it joined).
	SinceStateChangeSec float64 `json:"since_state_change_sec"`
}

// Stats is the /v1/cluster snapshot: ring membership, per-replica health
// and load, matrix placement, and the router's event counters.
type Stats struct {
	Ring     []string       `json:"ring"`
	Replicas []ReplicaStats `json:"replicas"`
	Matrices int            `json:"matrices"`
	// Placements maps each matrix ID to the replicas holding it, primary
	// preference first — the observable the rebalance and replication
	// tests assert against.
	Placements map[string][]string `json:"placements"`

	Requests     int64 `json:"requests"`
	Moves        int64 `json:"moves"`
	Spillovers   int64 `json:"spillovers"`
	Failovers    int64 `json:"failovers"`
	Ejects       int64 `json:"ejects"`
	Readmits     int64 `json:"readmits"`
	Replications int64 `json:"replications"`
	// ProbeFailures totals failed health probes (the metric the
	// spmm_cluster_probe_failures_total counter tracks); ProbeRounds totals
	// completed probe sweeps over the fleet.
	ProbeFailures int64 `json:"probe_failures"`
	ProbeRounds   int64 `json:"probe_rounds"`
}
