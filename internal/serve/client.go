package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// Client is the Go client for a spmmserve endpoint — the library behind
// cmd/spmmload and the end-to-end tests. It speaks the same wire protocol
// the handlers do: JSON control plane, raw float64 panels on the data
// plane.
//
// With MaxAttempts > 1 the client retries retryable failures — 429 sheds,
// 503 unavailability (drain, queue deadline, durability hiccough) and,
// when RetryConnErrors is set, transport-level errors (the restart window
// of a crashed server). The pause before each retry is the larger of the
// server's Retry-After hint and capped exponential backoff with jitter
// (harness.Backoff), so a thundering herd of clients does not re-shed
// itself in lockstep.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts caps tries per request; <= 1 disables retry.
	MaxAttempts int
	// Backoff paces retries; the zero value means harness.DefaultBackoff.
	Backoff harness.Backoff
	// RetryConnErrors extends retry to transport errors (connection
	// refused/reset) — for riding out a server crash-and-restart window.
	RetryConnErrors bool
	// Sleep paces the retry waits; nil means time.Sleep. Tests inject a
	// recorder so retry pacing is asserted deterministically, not slept
	// through — the injectable-time pattern internal/clock generalizes.
	Sleep func(time.Duration)

	attempts atomic.Int64
	retries  atomic.Int64

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
}

// NewClient builds a client for the given base URL.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Attempts returns the total HTTP attempts made, retries included.
func (c *Client) Attempts() int64 { return c.attempts.Load() }

// Retries returns how many of those attempts were retries.
func (c *Client) Retries() int64 { return c.retries.Load() }

// StatusError is a non-2xx server reply.
type StatusError struct {
	Code int
	// RetryAfter is the parsed Retry-After header (zero when absent).
	RetryAfter time.Duration
	Message    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Code, e.Message)
}

// Overloaded reports a 429 shed.
func (e *StatusError) Overloaded() bool { return e.Code == http.StatusTooManyRequests }

// Retryable reports a reply worth retrying after a pause (RetryableStatus).
func (e *StatusError) Retryable() bool { return RetryableStatus(e.Code) }

func statusError(resp *http.Response) error {
	var msg ErrorResponse
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(body, &msg); err != nil || msg.Error == "" {
		msg.Error = string(body)
	}
	e := &StatusError{Code: resp.StatusCode, Message: msg.Error}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// retryDelay computes the pause before retry `attempt`, honoring the
// server's Retry-After when it is longer than the backoff schedule.
func (c *Client) retryDelay(attempt int, serverHint time.Duration) time.Duration {
	c.rngOnce.Do(func() { c.rng = rand.New(rand.NewSource(time.Now().UnixNano())) })
	c.rngMu.Lock()
	d := c.Backoff.Delay(attempt, c.rng)
	c.rngMu.Unlock()
	if serverHint > d {
		d = serverHint
	}
	return d
}

// do runs build→request with retry. build is re-invoked per attempt so the
// request body is fresh each time.
func (c *Client) do(build func() (*http.Request, error)) (*http.Response, error) {
	maxAttempts := c.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		c.attempts.Add(1)
		if attempt > 1 {
			c.retries.Add(1)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			if !c.RetryConnErrors || attempt >= maxAttempts {
				return nil, err
			}
			c.sleep(c.retryDelay(attempt, 0))
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		serr := statusError(resp)
		resp.Body.Close()
		se, ok := serr.(*StatusError)
		if !ok || !se.Retryable() || attempt >= maxAttempts {
			return nil, serr
		}
		c.sleep(c.retryDelay(attempt, se.RetryAfter))
	}
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (c *Client) postJSON(path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.do(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.Base+path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) getJSON(path string, out any) error {
	resp, err := c.do(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.Base+path, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Register uploads a matrix (generator spec or MatrixMarket text).
// Registration is content-addressed and idempotent, so retrying it — even
// across a server restart — converges on the same ID.
func (c *Client) Register(req RegisterRequest) (*RegisterResponse, error) {
	var out RegisterResponse
	if err := c.postJSON("/v1/matrices", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Matrices lists the registered matrices.
func (c *Client) Matrices() ([]MatrixInfo, error) {
	var out []MatrixInfo
	if err := c.getJSON("/v1/matrices", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Export fetches the registry-metadata export of one matrix: canonical
// triplets plus generator-spec provenance, enough to re-register the exact
// matrix (same content ID) anywhere.
func (c *Client) Export(id string) (*ExportRecord, error) {
	var out ExportRecord
	if err := c.getJSON("/v1/matrices/"+id+"/export", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Prepare warms the prepared-format cache for one matrix. The response
// reports whether the plan-current format was already resident.
func (c *Client) Prepare(id string) (*PrepareResponse, error) {
	var out PrepareResponse
	if err := c.postJSON("/v1/matrices/"+id+"/prepare", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Mutate applies one insert/update/delete batch to a served matrix. The
// returned epoch + content hash identify the post-batch state: every
// multiply answered at that epoch reflects the batch bit-exactly.
func (c *Client) Mutate(id string, ops []MutateOp) (*MutateResponse, error) {
	var out MutateResponse
	if err := c.postJSON("/v1/matrices/"+id+"/mutate", MutateRequest{Ops: ops}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Compact forces a synchronous overlay compaction for one matrix. The
// response reports whether anything was merged and the (unchanged) epoch.
func (c *Client) Compact(id string) (*CompactResponse, error) {
	var out CompactResponse
	if err := c.postJSON("/v1/matrices/"+id+"/compact", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the serving counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var out StatsResponse
	if err := c.getJSON("/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MultiplyResult is one multiply's payload plus its serving metadata.
type MultiplyResult struct {
	// C is the rows×k result panel.
	C *matrix.Dense[float64]
	// Format is the sparse format the server dispatched on.
	Format string
	// Variant is the kernel variant the dispatch executed (X-Spmm-Variant)
	// — watching it change is how a client observes a tuner promotion.
	Variant string
	// CacheHit reports the prepared format was already resident.
	CacheHit bool
	// BatchWidth is how many requests shared the dispatch (1 = alone).
	BatchWidth int
	// BatchK is the dispatch's total dense-column count.
	BatchK int
	// Replica names the cluster replica that served the multiply
	// (X-Spmm-Replica, set by spmmrouter; "" against a single server).
	Replica string
	// RequestID is the distributed-tracing ID of this multiply
	// (X-Spmm-Request-Id; "" when the server runs without request tracing).
	RequestID string
	// Epoch is the mutation epoch the result was computed at (X-Spmm-Epoch;
	// 0 for a never-mutated matrix).
	Epoch int64
	// Hash is the content hash of the state served (X-Spmm-Content-Hash) —
	// the client-side key for picking the reference to verify against.
	Hash string
	// Timing is the server's per-phase latency breakdown (X-Spmm-Timing);
	// Timing.Valid() is false when absent.
	Timing Timing
}

// Multiply computes C[:, :k] = A×B[:, :k] on the server for the registered
// matrix. b must have the matrix's column count as rows and at least k
// columns; deadline 0 leaves the server default in force.
func (c *Client) Multiply(id string, rows int, b *matrix.Dense[float64], k int, deadline time.Duration) (*MultiplyResult, error) {
	wire, err := panelWire(b, k)
	if err != nil {
		return nil, err
	}
	// The body is a leased copy, never a view of b: net/http's transport may
	// still be reading it after Do returns (a server that answers before
	// reading the body — this one sheds with 429 that way), and the caller
	// may overwrite b as soon as Multiply returns: each attempt's body holds
	// a reference of its own until the transport closes it.
	body := LeaseBytes(len(wire))
	defer body.Release()
	copy(body.Bytes(), wire)
	url := fmt.Sprintf("%s/v1/matrices/%s/multiply?k=%d", c.Base, id, k)
	resp, err := c.do(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, nil)
		if err != nil {
			return nil, err
		}
		body.SetBody(req)
		req.Header.Set("Content-Type", "application/octet-stream")
		if deadline > 0 {
			req.Header.Set(HeaderDeadlineMs, strconv.Itoa(int(deadline.Milliseconds())))
		}
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A caller that has the matrix's row count wrong must not get a prefix
	// of the reply (or a short-read error) in place of C.
	if want := int64(rows) * int64(k) * 8; resp.ContentLength >= 0 && resp.ContentLength != want {
		return nil, fmt.Errorf("serve: multiply reply is %d bytes, a %dx%d panel is %d (rows must be the matrix's row count)",
			resp.ContentLength, rows, k, want)
	}
	out, err := ReadPanel(resp.Body, rows, k)
	if err != nil {
		return nil, err
	}
	width, _ := strconv.Atoi(resp.Header.Get(HeaderBatchWidth))
	batchK, _ := strconv.Atoi(resp.Header.Get(HeaderBatchK))
	timing, _ := ParseTiming(resp.Header.Get(HeaderTiming))
	epoch, _ := strconv.ParseInt(resp.Header.Get(HeaderEpoch), 10, 64)
	// The server omits the epoch/hash headers while the matrix has never
	// mutated — the served hash is then the content-addressed ID itself.
	hash := resp.Header.Get(HeaderContentHash)
	if hash == "" {
		hash = id
	}
	return &MultiplyResult{
		C:          out,
		Format:     resp.Header.Get(HeaderFormat),
		Variant:    resp.Header.Get(HeaderVariant),
		CacheHit:   resp.Header.Get(HeaderCache) == "hit",
		BatchWidth: width,
		BatchK:     batchK,
		Replica:    resp.Header.Get(HeaderReplica),
		RequestID:  resp.Header.Get(HeaderRequestID),
		Epoch:      epoch,
		Hash:       hash,
		Timing:     timing,
	}, nil
}

// TraceRequests fetches the server's recent request records
// (GET /v1/trace/requests). Zero-valued filters are omitted.
func (c *Client) TraceRequests(id, matrixID string, minMs float64, n int) ([]RequestTraceRecord, error) {
	q := make([]string, 0, 4)
	if id != "" {
		q = append(q, "id="+id)
	}
	if matrixID != "" {
		q = append(q, "matrix="+matrixID)
	}
	if minMs > 0 {
		q = append(q, fmt.Sprintf("min_ms=%g", minMs))
	}
	if n > 0 {
		q = append(q, fmt.Sprintf("n=%d", n))
	}
	path := "/v1/trace/requests"
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	var out []RequestTraceRecord
	if err := c.getJSON(path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Tune fetches the auto-tuner's decision trail (/v1/tune). With tuning
// disabled the result has Enabled false.
func (c *Client) Tune() (*tune.Stats, error) {
	var out tune.Stats
	if err := c.getJSON("/v1/tune", &out); err != nil {
		return nil, err
	}
	return &out, nil
}
