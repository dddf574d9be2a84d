package serve

import (
	"net/http"
	"net/url"
	"strings"

	"repro/internal/advisor"
)

// The wire protocol: control-plane messages are JSON, data-plane payloads
// (dense B panels in, C panels out) are raw little-endian float64 arrays in
// row-major order — the same layout matrix.Dense stores, so a compact panel
// is its own wire form and encode/decode is one bulk read or write (panel.go).
// Metadata about a multiply rides in response headers (see the X-Spmm-*
// constants) so the body stays pure payload.

// Multiply metadata headers.
const (
	// HeaderFormat reports the sparse format the multiply dispatched on.
	HeaderFormat = "X-Spmm-Format"
	// HeaderCache is "hit" when the prepared format was already cached,
	// "prepare" when this request (or its batch) had to prepare it.
	HeaderCache = "X-Spmm-Cache"
	// HeaderBatchWidth is the number of requests coalesced into the
	// dispatch that served this response (1 = unbatched).
	HeaderBatchWidth = "X-Spmm-Batch-Width"
	// HeaderBatchK is the total dense-column count of that dispatch.
	HeaderBatchK = "X-Spmm-Batch-K"
	// HeaderVariant reports the kernel variant (the kernels registry name,
	// e.g. "csr/opts-pool") the multiply's serving plan executed — the
	// identity Registry.Promote installs.
	HeaderVariant = "X-Spmm-Variant"
	// HeaderDeadlineMs is the request header carrying the client's
	// deadline in milliseconds; absent means the server default applies.
	HeaderDeadlineMs = "X-Spmm-Deadline-Ms"
	// HeaderReplica is set by the cluster router (cmd/spmmrouter) on every
	// proxied response: the name of the replica that actually served it.
	// Single-node servers never set it.
	HeaderReplica = "X-Spmm-Replica"
	// HeaderRequestID carries the distributed-tracing request ID. The edge
	// (router or server) mints one when the client did not supply it; every
	// hop propagates it unchanged and echoes it on the response.
	HeaderRequestID = "X-Spmm-Request-Id"
	// HeaderTiming is the per-phase latency breakdown of a multiply,
	// "phase=ms;...;total=ms" (see FormatTiming/ParseTiming). Only set when
	// request tracing is enabled.
	HeaderTiming = "X-Spmm-Timing"
	// HeaderEpoch is the mutation epoch the multiply's result reflects:
	// exactly the mutations acked through that epoch are visible, no more,
	// no fewer. 0 (or absent) means the matrix has never been mutated.
	HeaderEpoch = "X-Spmm-Epoch"
	// HeaderContentHash is the content hash of the state the multiply
	// served: the matrix ID until the first post-mutation compaction
	// re-bases it (see MutateResponse.Hash for the versioning rule).
	// Both headers are omitted on never-mutated matrices — epoch 0's
	// hash is the request path's ID, and the clean multiply path keeps
	// its baseline per-response header budget.
	HeaderContentHash = "X-Spmm-Content-Hash"
)

// RegisterRequest uploads a matrix. Exactly one source must be set: a
// generator spec (Name, optionally Scale), inline MatrixMarket text (MTX),
// or raw COO triplets (Rows/Cols/RowIdx/ColIdx/Vals — the shape
// ExportRecord carries, so a matrix exported from one replica re-registers
// on another byte-for-byte; the cluster rebalancer moves shards this way).
type RegisterRequest struct {
	// Name is a generator-registry matrix name (gen.Names).
	Name string `json:"name,omitempty"`
	// Scale shrinks the generator spec; 0 means 1.0 (full size).
	Scale float64 `json:"scale,omitempty"`
	// MTX is inline MatrixMarket text.
	MTX string `json:"mtx,omitempty"`
	// Rows/Cols/RowIdx/ColIdx/Vals carry a raw COO upload (canonical or
	// not; the registry canonicalizes). Set Rows and Cols to use them.
	Rows   int       `json:"rows,omitempty"`
	Cols   int       `json:"cols,omitempty"`
	RowIdx []int32   `json:"row_idx,omitempty"`
	ColIdx []int32   `json:"col_idx,omitempty"`
	Vals   []float64 `json:"vals,omitempty"`
	// ServeID, when set, imports a mutated matrix under an existing handle
	// (the cluster rebalance path for matrices whose served state has
	// diverged from their original registration). The triplets above are
	// then the CURRENT base (hashing to BaseHash, which the receiver
	// verifies), Epoch/CompactEpoch the exporter's version counters, and
	// the Ov* arrays its pending overlay. If the receiver already holds
	// ServeID at the same or a newer epoch the import is an idempotent
	// no-op; an older copy is replaced wholesale.
	ServeID      string    `json:"serve_id,omitempty"`
	Epoch        int64     `json:"epoch,omitempty"`
	CompactEpoch int64     `json:"compact_epoch,omitempty"`
	BaseHash     string    `json:"base_hash,omitempty"`
	OvRowIdx     []int32   `json:"ov_row_idx,omitempty"`
	OvColIdx     []int32   `json:"ov_col_idx,omitempty"`
	OvVals       []float64 `json:"ov_vals,omitempty"`
	OvDel        []bool    `json:"ov_del,omitempty"`
}

// Triplets reports whether the request carries a raw COO upload.
func (r *RegisterRequest) Triplets() bool { return r.Rows > 0 || r.Cols > 0 || len(r.Vals) > 0 }

// Import reports whether the request is a mutated-state import (adopting
// an existing serving handle) rather than a content-addressed registration.
func (r *RegisterRequest) Import() bool { return r.ServeID != "" }

// RegisterResponse describes the registered matrix. Registration is
// idempotent: the ID is content-addressed, so re-uploading the same matrix
// returns the same ID with Existed set.
type RegisterResponse struct {
	ID   string `json:"id"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	NNZ  int    `json:"nnz"`
	// Format is the sparse format the advisor selected for serving.
	Format string `json:"format"`
	// Schedule is the selected work partition ("static" or "balanced").
	Schedule string `json:"schedule"`
	// Block is the BCSR/BELL block edge multiplies will use.
	Block int `json:"block"`
	// Variant is the kernel variant the serving plan currently executes —
	// the serving rule's pick at first registration, possibly a promotion
	// on a re-registration of an already-served matrix.
	Variant string `json:"variant"`
	// PlanVersion is the serving-plan version (1 = the serving rule's
	// plan; each promotion and compaction increments it).
	PlanVersion int64 `json:"plan_version"`
	// Existed reports that the matrix was already registered.
	Existed bool `json:"existed"`
	// Epoch/Hash report the mutation state after an import registration
	// (zero-valued for plain content-addressed registrations).
	Epoch int64  `json:"epoch,omitempty"`
	Hash  string `json:"hash,omitempty"`
	// FormatBytes is the prepared format's footprint.
	FormatBytes int `json:"format_bytes"`
	// Advice is the full advisor report behind the format selection — the
	// same struct `spmmadvise -json` emits.
	Advice advisor.Report `json:"advice"`
}

// MatrixInfo is one registry listing entry.
type MatrixInfo struct {
	ID       string `json:"id"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	NNZ      int    `json:"nnz"`
	Format   string `json:"format"`
	Schedule string `json:"schedule"`
	Block    int    `json:"block"`
	// Name/Scale are the generator-spec provenance ("" for direct
	// uploads) — the registry metadata a cluster router needs to
	// re-materialize the matrix on another replica without the triplets.
	Name  string  `json:"name,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// Variant/PlanVersion identify the serving plan currently installed
	// (promotions and compactions bump the version).
	Variant     string `json:"variant"`
	PlanVersion int64  `json:"plan_version"`
	// Prepared reports whether the prepared format currently cached matches
	// the current plan version (a just-promoted matrix reads false until
	// its re-prepare lands).
	Prepared bool `json:"prepared"`
	// Epoch is the mutation epoch (0 = never mutated); Hash is the content
	// hash of the served state (== ID until the first compaction re-bases
	// it); OverlayNNZ is the pending delta-overlay entry count awaiting
	// compaction.
	Epoch      int64  `json:"epoch,omitempty"`
	Hash       string `json:"hash"`
	OverlayNNZ int    `json:"overlay_nnz,omitempty"`
}

// MutateOp is one nonzero mutation: an insert/update (Del false, Val the
// new value) or a delete (Del true, Val ignored) at (Row, Col). Within a
// batch, later ops at the same coordinate win.
type MutateOp struct {
	Row int32   `json:"row"`
	Col int32   `json:"col"`
	Val float64 `json:"val,omitempty"`
	Del bool    `json:"del,omitempty"`
}

// MutateRequest is the body of POST /v1/matrices/{id}/mutate: one atomic
// batch of mutations. The batch is applied, made durable, and acked as a
// unit; the response's epoch identifies the state every subsequent
// multiply at that epoch reflects.
type MutateRequest struct {
	Ops []MutateOp `json:"ops"`
}

// MutateResponse acks one applied mutation batch.
type MutateResponse struct {
	ID string `json:"id"`
	// Epoch is the mutation epoch the batch produced: the cumulative count
	// of acked batches since registration. Compaction merges the overlay
	// into a new base but never rewinds the epoch.
	Epoch int64 `json:"epoch"`
	// Hash is the content hash of the served state: the canonical base
	// hash when the overlay is empty (after compaction it is the hash of
	// the merged triplets — re-registering them anywhere reproduces it),
	// or "<base>+e<epoch>" while mutations are pending on top of it.
	Hash string `json:"hash"`
	// OverlayNNZ is the overlay's entry count after the batch; Applied is
	// how many canonicalized ops the batch contributed (duplicates within
	// the batch collapse, last-op-wins).
	OverlayNNZ int `json:"overlay_nnz"`
	Applied    int `json:"applied"`
}

// CompactResponse answers POST /v1/matrices/{id}/compact — a forced
// synchronous compaction (the background compactor uses the same path).
// Compacted is false when there was nothing to merge.
type CompactResponse struct {
	ID        string `json:"id"`
	Compacted bool   `json:"compacted"`
	Epoch     int64  `json:"epoch"`
	Hash      string `json:"hash"`
}

// CacheStats is the prepared-format cache section of StatsResponse.
type CacheStats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Prepares      int64 `json:"prepares"`
	Evictions     int64 `json:"evictions"`
}

// DurabilityStats is the durability section of StatsResponse; the zero
// value (Enabled false) means the server runs without a data dir.
type DurabilityStats struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	// WALBytes is the current write-ahead-log length (drops to ~0 after
	// each snapshot compaction).
	WALBytes int64 `json:"wal_bytes"`
	// LastSeq is the newest WAL sequence number assigned.
	LastSeq          uint64 `json:"last_seq"`
	Snapshots        int64  `json:"snapshots"`
	SnapshotFailures int64  `json:"snapshot_failures"`
	// Recovered is how many registrations startup replay restored.
	Recovered       int     `json:"recovered"`
	RecoverySeconds float64 `json:"recovery_seconds"`
}

// StatsResponse is the /v1/stats snapshot.
type StatsResponse struct {
	Matrices        int             `json:"matrices"`
	Requests        int64           `json:"requests"`
	Multiplies      int64           `json:"multiplies"`
	Batches         int64           `json:"batches"`
	BatchedRequests int64           `json:"batched_requests"`
	Shed            int64           `json:"shed"`
	Timeouts        int64           `json:"timeouts"`
	InFlight        int64           `json:"in_flight"`
	Queued          int64           `json:"queued"`
	Cache           CacheStats      `json:"cache"`
	Durability      DurabilityStats `json:"durability"`
	// Variants counts multiplies served per kernel variant name — the
	// externally-visible trace of promotions.
	Variants map[string]int64 `json:"variants,omitempty"`
	// Delta summarizes the mutation subsystem; nil until the first
	// mutation lands.
	Delta *DeltaStats `json:"delta,omitempty"`
}

// DeltaStats is the /v1/stats digest of the mutation subsystem.
type DeltaStats struct {
	// Mutations is acked mutation batches; Ops is canonicalized ops
	// applied across them.
	Mutations int64 `json:"mutations"`
	Ops       int64 `json:"ops"`
	// Mutated is how many registered matrices currently carry a non-empty
	// overlay; OverlayNNZ sums their pending overlay entries.
	Mutated    int   `json:"mutated"`
	OverlayNNZ int64 `json:"overlay_nnz"`
	// Compactions counts completed background/forced compactions;
	// CompactionErrors counts ones whose re-prepare failed (the merged
	// base still swapped in; the prepared format rebuilds lazily).
	Compactions      int64 `json:"compactions"`
	CompactionErrors int64 `json:"compaction_errors"`
}

// ExportRecord is the registry-metadata export of one matrix
// (GET /v1/matrices/{id}/export): the canonical triplets plus the
// generator-spec provenance. It is exactly what another replica needs to
// register the identical matrix — the cluster rebalancer pulls it from a
// live holder when a shard moves and its provenance has no generator spec.
type ExportRecord struct {
	ID    string  `json:"id"`
	Rows  int     `json:"rows"`
	Cols  int     `json:"cols"`
	Name  string  `json:"name,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// RowIdx/ColIdx/Vals are the CURRENT canonical base triplets
	// (row-major sorted, deduped). For a never-compacted matrix they hash
	// back to ID; after a compaction they hash to BaseHash instead.
	RowIdx []int32   `json:"row_idx"`
	ColIdx []int32   `json:"col_idx"`
	Vals   []float64 `json:"vals"`
	// Epoch/CompactEpoch/BaseHash/Hash carry the mutation state (all
	// zero-valued for a never-mutated matrix): the mutation epoch, the
	// epoch the base was last compacted through, the base triplets' own
	// content hash when it differs from ID, and the served state's
	// current content hash.
	Epoch        int64  `json:"epoch,omitempty"`
	CompactEpoch int64  `json:"compact_epoch,omitempty"`
	BaseHash     string `json:"base_hash,omitempty"`
	Hash         string `json:"hash,omitempty"`
	// OvRowIdx/OvColIdx/OvVals/OvDel are the pending overlay's entries in
	// canonical order (OvDel true = tombstone). Importing base + overlay
	// reproduces the exporter's served bits exactly.
	OvRowIdx []int32   `json:"ov_row_idx,omitempty"`
	OvColIdx []int32   `json:"ov_col_idx,omitempty"`
	OvVals   []float64 `json:"ov_vals,omitempty"`
	OvDel    []bool    `json:"ov_del,omitempty"`
}

// Mutated reports whether the export carries diverged (mutated) state that
// a plain content-addressed re-registration cannot reproduce.
func (e *ExportRecord) Mutated() bool { return e.Epoch > 0 || e.BaseHash != "" }

// Request turns an export back into a registration request. It prefers the
// triplets (always present, always exact) so the receiving replica needs no
// generator determinism guarantees. For a mutated export the request
// carries the full mutation state: the receiver adopts the exporter's
// handle (ServeID), verifies the base hash, and installs base + overlay
// bitwise-identical.
func (e *ExportRecord) Request() RegisterRequest {
	return RegisterRequest{
		Rows: e.Rows, Cols: e.Cols,
		RowIdx: e.RowIdx, ColIdx: e.ColIdx, Vals: e.Vals,
		ServeID: e.ID, Epoch: e.Epoch, CompactEpoch: e.CompactEpoch,
		BaseHash: e.BaseHash,
		OvRowIdx: e.OvRowIdx, OvColIdx: e.OvColIdx,
		OvVals: e.OvVals, OvDel: e.OvDel,
	}
}

// PrepareResponse answers the warm-prepare endpoint
// (POST /v1/matrices/{id}/prepare): Cache is "hit" when the plan-current
// prepared format was already resident, "prepare" when this call built it.
// The cluster rebalancer calls it on a shard's new owner before flipping
// the ring, so the first routed multiply is a cache hit.
type PrepareResponse struct {
	ID          string `json:"id"`
	Cache       string `json:"cache"`
	Format      string `json:"format"`
	Variant     string `json:"variant"`
	FormatBytes int    `json:"format_bytes"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RetryableStatus is the protocol's one answer to "does this status mean try
// again, later or elsewhere": a 429 shed, a 503 (drain, queue deadline,
// durability unavailable), or a router's 502/504 (no holder answered). The
// error writer attaches Retry-After to exactly these, the client retries
// exactly these, and the cluster router fails over on exactly these.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// QueryValue is u.Query().Get(key) without the url.Values map that Query
// builds on every call: a multiply reads its k this way on the server and
// on the router. A query holding '%' or '+' (escapes) or ';' (which
// url.ParseQuery refuses) goes through Query, so the two agree on every
// input.
func QueryValue(u *url.URL, key string) string {
	raw := u.RawQuery
	if strings.ContainsAny(raw, "%+;") {
		return u.Query().Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if name, value, _ := strings.Cut(pair, "="); name == key {
			return value
		}
	}
	return ""
}
