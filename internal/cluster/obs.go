package cluster

import (
	"fmt"

	"repro/internal/obs"
)

// ExportMetrics names the router's metrics in r — the cluster tier's only
// name/help table; the values are the fields ClusterStats reads, and the
// ring size is computed at scrape. Replicas that join afterwards are named
// as they join. cmd/spmmrouter calls it once with obs.Default; exporting a
// second router into the same registry panics on the first counter.
func (rt *Router) ExportMetrics(r *obs.Registry) {
	r.AttachCounter("spmm_cluster_requests_total",
		"Requests received by the cluster router.", &rt.requests)
	r.AttachCounter("spmm_cluster_moves_total",
		"Matrix IDs re-homed by rebalances (join/leave ring changes).", &rt.moves)
	r.AttachCounter("spmm_cluster_spillovers_total",
		"Multiplies routed to a secondary holder because the owner was loaded.", &rt.spillovers)
	r.AttachCounter("spmm_cluster_failovers_total",
		"Multiplies retried on another holder after a replica failure.", &rt.failovers)
	r.AttachCounter("spmm_cluster_ejects_total",
		"Replicas ejected by the health prober after consecutive probe failures.", &rt.ejects)
	r.AttachCounter("spmm_cluster_readmits_total",
		"Ejected replicas re-admitted after a successful probe.", &rt.readmits)
	r.AttachCounter("spmm_cluster_replications_total",
		"Hot matrices replicated to a secondary holder.", &rt.replications)
	r.AttachCounter("spmm_cluster_probe_failures_total",
		"Health probes that failed (timeout or non-200).", &rt.probeFailures)
	r.NewGaugeFunc("spmm_cluster_ring_size",
		"Replicas currently in the consistent-hash ring.",
		func() float64 { return float64(rt.ring.Load().Len()) })

	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.exported = r
	for name, m := range rt.metrics {
		m.export(r, name)
	}
}

// export names one replica's series, the replica name as a constant label.
func (m *replicaMetrics) export(r *obs.Registry, name string) {
	label := fmt.Sprintf("{replica=%q}", name)
	r.AttachCounter("spmm_cluster_proxied_total"+label,
		"Requests proxied to this replica.", &m.proxied)
	r.AttachCounter("spmm_cluster_proxy_errors_total"+label,
		"Proxy attempts against this replica that failed.", &m.errors)
	r.AttachHistogram("spmm_cluster_proxy_seconds"+label,
		"Proxy latency against this replica, request out to response in.", &m.seconds)
}
