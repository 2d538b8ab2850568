// Package replication implements journal-shipping replication for a
// verlog repository. A base is a deterministic function of its snapshot
// plus the ordered journal (a program is one mapping from old to new
// object base), so a follower that replays the primary's CRC-framed
// journal records through the recovery code holds a base provably equal
// to the primary's at the same seq.
//
// The wire protocol is three HTTP endpoints on the primary (served by
// internal/server, which delegates to a Node):
//
//	GET  /v1/repl/stream?after=N   long-poll for framed records with seq > N
//	GET  /v1/repl/snapshot         binary snapshot bootstrap (base + seq)
//	POST /v1/repl/promote          fence the old primary and take writes
//
// The stream body is the journal's own line format — "v1 <crc32c>
// <payload>\n" per record, written by repository.Entry.AppendRecord — so a
// record is checksummed end to end: what the follower fsyncs is
// byte-identical to what the primary fsynced. Responses carry
// X-Verlog-Epoch and X-Verlog-Seq headers; the epoch is the fencing
// token. A follower only applies records from an epoch at least as new
// as its own, so a deposed primary (older epoch) cannot roll back a
// promoted follower.
//
// The fence also covers the reverse direction — a deposed primary
// rejoining as a follower. Its journal suffix past the promotion point
// was written under the dead epoch and may diverge from the new
// primary's history, so it must never be grafted onto. The stream
// request carries the follower's epoch (&epoch=E); when that epoch is
// stale the response adds X-Verlog-Fence-Seq, the earliest seq at which
// any newer epoch was adopted. A follower whose resume point lies past
// the fence discards its suffix by re-bootstrapping from the snapshot
// instead of adopting the epoch, and a resume point past the primary's
// own head is answered snapshot_required for the same reason.
//
// The follower side is a pull loop: resume from the last durable seq,
// jittered exponential backoff on any failure, snapshot bootstrap when
// the primary has compacted past the resume point, and torn/corrupt
// frames cut at the first bad line (the valid prefix is applied, the
// rest re-fetched) — a partial record is never applied.
package replication

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"verlog/internal/obs"
	"verlog/internal/repository"
	"verlog/internal/storage"
)

// Headers carried by every replication response.
const (
	// HeaderEpoch is the sender's replication epoch (decimal).
	HeaderEpoch = "X-Verlog-Epoch"
	// HeaderSeq is the sender's head seq at response time (decimal).
	HeaderSeq = "X-Verlog-Seq"
	// HeaderFenceSeq is the earliest journal seq at which the sender
	// adopted an epoch newer than the requester's (decimal). Present only
	// when the requester's epoch is behind; a follower whose local head
	// exceeds it holds a divergent suffix and must re-bootstrap.
	HeaderFenceSeq = "X-Verlog-Fence-Seq"
)

// Defaults for the node's knobs.
const (
	// DefaultMaxRetention bounds how many journal records the primary
	// retains for follower resume beyond what Compact would keep anyway.
	DefaultMaxRetention = 65536
	// DefaultFollowerTTL is how long a silent follower keeps pinning
	// journal retention before it is presumed dead and must re-bootstrap.
	DefaultFollowerTTL = time.Minute
	// DefaultPollWait is the long-poll window the follower requests.
	DefaultPollWait = 25 * time.Second
	// maxStreamBatch bounds records per stream response, so one response
	// stays a bounded read for the follower.
	maxStreamBatch = 4096
	// maxStreamBody bounds the body a follower will read from one stream
	// response (a batch of large diffs can be big, but not unbounded).
	maxStreamBody = 256 << 20
	// backoff bounds for the follower reconnect loop.
	minBackoff = 200 * time.Millisecond
	maxBackoff = 15 * time.Second
)

// ErrSnapshotRequired reports a stream resume point that precedes the
// primary's snapshot: the records were compacted away and the follower
// must bootstrap from /v1/repl/snapshot.
var ErrSnapshotRequired = errors.New("replication: resume point predates the snapshot; a snapshot transfer is required")

// ErrStaleEpoch reports records offered under an epoch older than the
// repository's own — the sender is a deposed primary.
var ErrStaleEpoch = errors.New("replication: upstream epoch is older than ours; refusing its records")

// ErrBadPromoteTarget reports an explicit promotion target epoch that is
// not past the node's current epoch.
var ErrBadPromoteTarget = errors.New("replication: promote target epoch is not past the current epoch")

// Config configures a Node.
type Config struct {
	// PrimaryURL, when non-empty, starts the node as a follower of the
	// primary at that base URL. Empty starts it as a primary.
	PrimaryURL string
	// FollowerID identifies this follower in the primary's status and ack
	// table (default: a random id).
	FollowerID string
	// MaxRetention bounds the journal records the primary keeps for
	// follower resume; a follower further behind than this re-bootstraps
	// via snapshot transfer (default DefaultMaxRetention; 0 uses the
	// default, negative disables retention entirely).
	MaxRetention int
	// FollowerTTL is how long a silent follower pins retention
	// (default DefaultFollowerTTL).
	FollowerTTL time.Duration
	// PollWait is the long-poll window a follower requests
	// (default DefaultPollWait).
	PollWait time.Duration
	// Client is the follower's HTTP client (default: one with no global
	// timeout; per-request deadlines bound each poll).
	Client *http.Client
	// Logger receives reconnect/bootstrap/promotion events (default: discard).
	Logger *slog.Logger
}

// followerState is the primary's record of one connected follower.
type followerState struct {
	ack  int       // highest seq the follower has durably applied
	seen time.Time // last stream request
}

// Node is one replication participant: a primary serving the stream or a
// follower pulling it. Promotion flips a follower into a primary at a
// higher epoch; the roles share the Node so the server can delegate the
// /v1/repl/* endpoints without caring which side it is on.
type Node struct {
	repo *repository.Repository
	cfg  Config

	mu        sync.Mutex
	follower  bool // current role; flips to false on Promote
	primary   string
	followers map[string]*followerState
	// Follower-side status, guarded by mu.
	connected   bool
	fenced      bool
	lastErr     string
	lastSync    time.Time // last successful exchange with the primary
	primaryHead int       // head seq the primary last reported
	started     bool
	cancel      context.CancelFunc
	done        chan struct{}

	httpc  *http.Client
	logger *slog.Logger

	// Instruments (nil-safe until Instrument).
	reconnects    *obs.Counter
	snapshotLoads *obs.Counter
	tornFrames    *obs.Counter
	staleEpochs   *obs.Counter
	streamed      *obs.Counter
}

// NewNode returns a node for repo. The node installs itself as the
// repository's compaction-retention hook, so Compact on a primary keeps
// the records its connected followers still need.
func NewNode(repo *repository.Repository, cfg Config) *Node {
	if cfg.MaxRetention == 0 {
		cfg.MaxRetention = DefaultMaxRetention
	}
	if cfg.FollowerTTL <= 0 {
		cfg.FollowerTTL = DefaultFollowerTTL
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = DefaultPollWait
	}
	if cfg.FollowerID == "" {
		cfg.FollowerID = fmt.Sprintf("f-%08x", rand.Uint32())
	}
	n := &Node{
		repo:      repo,
		cfg:       cfg,
		follower:  cfg.PrimaryURL != "",
		primary:   strings.TrimRight(cfg.PrimaryURL, "/"),
		followers: make(map[string]*followerState),
		httpc:     cfg.Client,
		logger:    cfg.Logger,
	}
	if n.httpc == nil {
		n.httpc = &http.Client{}
	}
	if n.logger == nil {
		n.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	repo.SetRetention(n.retentionFloor)
	return n
}

// Instrument registers the node's metrics: the staleness gauges the ISSUE
// of replication is measured by, plus stream/reconnect counters.
func (n *Node) Instrument(reg *obs.Registry) {
	n.reconnects = reg.Counter("verlog_repl_reconnects_total", "Follower stream reconnect attempts after a failure.")
	n.snapshotLoads = reg.Counter("verlog_repl_snapshot_loads_total", "Follower bootstraps via snapshot transfer.")
	n.tornFrames = reg.Counter("verlog_repl_torn_frames_total", "Torn or corrupt stream frames discarded by the follower.")
	n.staleEpochs = reg.Counter("verlog_repl_stale_epochs_total", "Stream responses rejected for carrying an older epoch.")
	n.streamed = reg.Counter("verlog_repl_streamed_records_total", "Journal records served to followers over /v1/repl/stream.")
	lagSeq := reg.Gauge("verlog_repl_lag_seq", "Follower staleness in journal records (primary head seq minus local head seq; 0 on a primary).")
	lagSec := reg.Gauge("verlog_repl_lag_seconds", "Seconds since the follower last heard from the primary (0 on a primary).")
	reg.RegisterCollector(func() {
		st := n.Status()
		lagSeq.Set(float64(st.LagSeq))
		lagSec.Set(st.LagSeconds)
	})
}

// headSeq returns the repository's published head seq.
func (n *Node) headSeq() int {
	_, seq, _ := n.repo.EntriesAfter(int(^uint(0) >> 1))
	return seq
}

// ReadOnly reports whether writes must be rejected here, and the primary
// base URL the client should redirect them to.
func (n *Node) ReadOnly() (bool, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.follower {
		return false, ""
	}
	return true, n.primary
}

// retentionFloor is the repository's compaction-retention hook: the
// highest seq every live follower has durably applied (compacting beyond
// it would strand a follower mid-stream), never further behind the head
// than MaxRetention records.
func (n *Node) retentionFloor() int {
	head := n.headSeq()
	floor := head
	now := time.Now()
	n.mu.Lock()
	for id, f := range n.followers {
		if now.Sub(f.seen) > n.cfg.FollowerTTL {
			delete(n.followers, id) // presumed dead; stop pinning retention
			continue
		}
		if f.ack < floor {
			floor = f.ack
		}
	}
	n.mu.Unlock()
	if n.cfg.MaxRetention >= 0 && floor < head-n.cfg.MaxRetention {
		floor = head - n.cfg.MaxRetention
	}
	return floor
}

// StreamBatch is one stream response: framed journal records ready to
// write to the wire, plus the headers that accompany them.
type StreamBatch struct {
	Frames  []byte // CRC-framed records, seq order ("v1 <crc> <payload>\n")
	Records int
	HeadSeq int
	Epoch   uint64
	// FenceSeq is the earliest seq at which an epoch newer than the
	// requester's was adopted here; valid only when HasFence (the
	// requester's epoch is behind ours).
	FenceSeq int
	HasFence bool
}

// Stream serves one long-poll stream request: records with seq > after,
// blocking up to wait for the first when none are pending. The request
// doubles as the follower's ack — asking for records after N means N is
// durable there — which feeds retention and the status table. epoch is
// the follower's own epoch; when it is behind ours the batch carries the
// fence seq the follower checks its resume point against. Returns
// ErrSnapshotRequired when after predates the snapshot, or exceeds our
// head — a follower ahead of its upstream holds a forked suffix and must
// rebuild from the snapshot, not wait for records that will never come.
func (n *Node) Stream(ctx context.Context, followerID string, after int, epoch uint64, wait time.Duration) (*StreamBatch, error) {
	if followerID != "" {
		n.mu.Lock()
		f := n.followers[followerID]
		if f == nil {
			f = &followerState{}
			n.followers[followerID] = f
		}
		if after > f.ack {
			f.ack = after
		}
		f.seen = time.Now()
		n.mu.Unlock()
	}
	entries, head, ok := n.repo.EntriesAfter(after)
	if !ok {
		return nil, fmt.Errorf("%w (want records after %d, snapshot is at %d)", ErrSnapshotRequired, after, head)
	}
	if after > head {
		return nil, fmt.Errorf("%w (resume point %d is past our head %d; the histories have diverged)", ErrSnapshotRequired, after, head)
	}
	if len(entries) == 0 && wait > 0 {
		wctx, cancel := context.WithTimeout(ctx, wait)
		err := n.repo.WaitPublished(wctx, after)
		cancel()
		if err != nil && ctx.Err() != nil {
			return nil, ctx.Err() // caller gone; the poll timeout is not an error
		}
		entries, head, ok = n.repo.EntriesAfter(after)
		if !ok {
			return nil, fmt.Errorf("%w (want records after %d, snapshot is at %d)", ErrSnapshotRequired, after, head)
		}
	}
	if len(entries) > maxStreamBatch {
		entries = entries[:maxStreamBatch]
	}
	var frames []byte
	for _, e := range entries {
		frames = e.AppendRecord(frames)
	}
	if n.streamed != nil {
		n.streamed.Add(int64(len(entries)))
	}
	batch := &StreamBatch{Frames: frames, Records: len(entries), HeadSeq: head, Epoch: n.repo.Epoch()}
	if epoch < batch.Epoch {
		batch.FenceSeq, batch.HasFence = n.repo.FenceSeq(epoch)
	}
	return batch, nil
}

// Promote turns a follower into the primary: the pull loop is stopped and
// the epoch durably advanced past the old primary's, so its records are
// fenced out everywhere this node's epoch propagates. The adoption seq —
// the promotion point — is recorded with the epoch, fencing any deposed
// node whose journal extends past it. Idempotent — on a node that is
// already primary it reports the current epoch.
//
// target is the epoch to promote to; 0 means the current epoch plus one.
// Epochs fence only because exactly one primary ever holds a given one:
// promote at most one follower per failover, or — when an operator must
// race promotions — pass each candidate a distinct explicit target.
// A target at or below the current epoch is rejected (except the exact
// current epoch on a node already primary, which is an idempotent retry).
func (n *Node) Promote(target uint64) (uint64, error) {
	n.mu.Lock()
	wasFollower := n.follower
	cancel, done := n.cancel, n.done
	n.mu.Unlock()
	if !wasFollower {
		cur := n.repo.Epoch()
		if target != 0 && target != cur {
			if target < cur {
				return 0, fmt.Errorf("%w (target %d, current %d)", ErrBadPromoteTarget, target, cur)
			}
			if err := n.repo.AdvanceEpoch(target, n.headSeq()); err != nil {
				return 0, err
			}
		}
		return n.repo.Epoch(), nil
	}
	if cancel != nil {
		cancel()
		<-done
	}
	next := n.repo.Epoch() + 1
	if target != 0 {
		if target <= n.repo.Epoch() {
			return 0, fmt.Errorf("%w (target %d, current %d)", ErrBadPromoteTarget, target, n.repo.Epoch())
		}
		next = target
	}
	if err := n.repo.AdvanceEpoch(next, n.headSeq()); err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.follower = false
	n.connected = false
	n.cancel, n.done = nil, nil
	n.mu.Unlock()
	n.logger.Info("promoted to primary", slog.Uint64("epoch", n.repo.Epoch()), slog.Int("head_seq", n.headSeq()))
	return n.repo.Epoch(), nil
}

// FollowerStatus is one row of the primary's follower table.
type FollowerStatus struct {
	ID         string  `json:"id"`
	AckSeq     int     `json:"ack_seq"`
	LagSeq     int     `json:"lag_seq"`
	AgeSeconds float64 `json:"age_seconds"`
}

// Status is the /v1/repl/status payload.
type Status struct {
	Role        string           `json:"role"` // "primary" or "follower"
	Epoch       uint64           `json:"epoch"`
	HeadSeq     int              `json:"head_seq"`
	SnapshotSeq int              `json:"snapshot_seq"`
	// Follower side: the upstream, whether the stream is currently
	// healthy, and how stale this replica is.
	Primary    string  `json:"primary,omitempty"`
	Connected  bool    `json:"connected,omitempty"`
	Fenced     bool    `json:"fenced,omitempty"`
	LagSeq     int     `json:"lag_seq"`
	LagSeconds float64 `json:"lag_seconds"`
	LastError  string  `json:"last_error,omitempty"`
	// EverSynced distinguishes a follower that has completed at least one
	// exchange with its primary (and whose LagSeq/LagSeconds therefore
	// mean something) from one that has never reached it.
	EverSynced bool `json:"ever_synced,omitempty"`
	// Primary side: connected followers and their acks.
	Followers []FollowerStatus `json:"followers,omitempty"`
}

// Status reports the node's replication state.
func (n *Node) Status() Status {
	head := n.headSeq()
	st := Status{
		Epoch:       n.repo.Epoch(),
		HeadSeq:     head,
		SnapshotSeq: n.repo.SnapshotSeq(),
	}
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.follower {
		st.Role = "follower"
		st.Primary = n.primary
		st.Connected = n.connected
		st.Fenced = n.fenced
		st.LastError = n.lastErr
		if n.primaryHead > head {
			st.LagSeq = n.primaryHead - head
		}
		if !n.lastSync.IsZero() {
			st.EverSynced = true
			st.LagSeconds = now.Sub(n.lastSync).Seconds()
		}
		return st
	}
	st.Role = "primary"
	for id, f := range n.followers {
		if now.Sub(f.seen) > n.cfg.FollowerTTL {
			continue
		}
		lag := head - f.ack
		if lag < 0 {
			lag = 0
		}
		st.Followers = append(st.Followers, FollowerStatus{
			ID: id, AckSeq: f.ack, LagSeq: lag, AgeSeconds: now.Sub(f.seen).Seconds(),
		})
	}
	return st
}

// Start launches the follower pull loop (a no-op on a primary). Stop or
// Promote ends it.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.follower || n.started {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel, n.done = cancel, make(chan struct{})
	n.started = true
	go n.run(ctx, n.done)
}

// Stop ends the pull loop without changing roles.
func (n *Node) Stop() {
	n.mu.Lock()
	cancel, done := n.cancel, n.done
	n.cancel, n.done = nil, nil
	n.started = false
	n.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// run is the follower loop: sync, and on any failure back off with
// jitter and resume from the last durable seq — the resume point is
// re-read from the repository every attempt, so nothing applied is ever
// re-requested and nothing skipped.
func (n *Node) run(ctx context.Context, done chan struct{}) {
	defer close(done)
	backoff := minBackoff
	for ctx.Err() == nil {
		err := n.syncOnce(ctx)
		if err == nil {
			backoff = minBackoff
			continue
		}
		if ctx.Err() != nil {
			return
		}
		n.mu.Lock()
		n.connected = false
		n.lastErr = err.Error()
		if errors.Is(err, ErrStaleEpoch) {
			n.fenced = true
		}
		n.mu.Unlock()
		if n.reconnects != nil {
			n.reconnects.Inc()
		}
		n.logger.Warn("stream sync failed; backing off",
			slog.String("error", err.Error()), slog.Duration("backoff", backoff))
		// Full jitter: sleep a uniform fraction of the current backoff, so
		// a herd of followers does not reconnect in lockstep.
		sleep := time.Duration(rand.Int63n(int64(backoff)) + int64(minBackoff)/2)
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// syncOnce performs one stream exchange: long-poll for records after the
// local head, vet the epoch (adopting a legitimate promotion, refusing a
// deposed primary, re-bootstrapping when our own suffix is the divergent
// one), apply the valid prefix, and bootstrap from a snapshot when the
// primary has compacted past our resume point.
func (n *Node) syncOnce(ctx context.Context) error {
	after := n.headSeq()
	wait := n.cfg.PollWait
	u := fmt.Sprintf("%s/v1/repl/stream?after=%d&wait=%s&id=%s&epoch=%d",
		n.primary, after, wait, url.QueryEscape(n.cfg.FollowerID), n.repo.Epoch())
	rctx, cancel := context.WithTimeout(ctx, wait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := n.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		// The primary compacted past our resume point — or our resume point
		// is past its head (a fork): either way, rebuild from its snapshot.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return n.bootstrap(ctx)
	case resp.StatusCode != http.StatusOK:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replication: stream returned %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	epoch, head, fence, err := parseReplHeaders(resp.Header)
	if err != nil {
		return err
	}
	own := n.repo.Epoch()
	if epoch < own {
		if n.staleEpochs != nil {
			n.staleEpochs.Inc()
		}
		return fmt.Errorf("%w (upstream %d, ours %d)", ErrStaleEpoch, epoch, own)
	}
	if epoch > own {
		// A promotion happened upstream. If our journal extends past the
		// promotion point, our suffix was written under the dead epoch and
		// may diverge from the new primary's history — grafting its stream
		// on would fork this replica silently. Discard the suffix by
		// rebuilding from the new primary's snapshot; only a head at or
		// before the fence is a provable prefix we may stream onto.
		if fence >= 0 && after > fence {
			n.logger.Warn("local journal extends past the promotion point; re-bootstrapping",
				slog.Int("head_seq", after), slog.Int("fence_seq", fence), slog.Uint64("epoch", epoch))
			return n.bootstrap(ctx)
		}
		// Adopt the epoch durably before applying anything under it. The
		// adoption seq is our own head: everything beyond it will come from
		// the new epoch's stream.
		if err := n.repo.AdvanceEpoch(epoch, after); err != nil {
			return err
		}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxStreamBody))
	if rerr != nil {
		// A connection cut mid-body: whatever full frames arrived are still
		// usable; the CRC framing below cuts at the tear.
		n.logger.Warn("stream body truncated", slog.String("error", rerr.Error()))
	}
	entries, perr := decodeFrames(body)
	if perr != nil {
		// Torn or corrupt frame: count it, apply the valid prefix only, and
		// let the next poll re-request from the new durable seq. A partial
		// record is never applied.
		if n.tornFrames != nil {
			n.tornFrames.Inc()
		}
		n.logger.Warn("discarded torn stream frame", slog.String("error", perr.Error()))
	}
	if len(entries) > 0 {
		if err := n.repo.ApplyReplicaBatch(entries); err != nil {
			return err
		}
	} else if rerr != nil || perr != nil {
		// The exchange produced nothing and the body was damaged: report it
		// as a failure so a persistently broken path (a proxy cutting every
		// response, first-frame corruption on repeat) backs off and shows in
		// lastErr instead of hot-looping as "connected".
		err := rerr
		if err == nil {
			err = perr
		}
		return fmt.Errorf("replication: stream body unusable, no records applied: %w", err)
	}
	n.mu.Lock()
	n.connected = true
	n.fenced = false
	n.lastErr = ""
	n.lastSync = time.Now()
	if head > n.primaryHead {
		n.primaryHead = head
	}
	n.mu.Unlock()
	return nil
}

// bootstrap fetches the primary's snapshot and resets the repository onto
// it — the catch-up path when the journal suffix we need is gone, and the
// fork-repair path when our own suffix must be discarded. The reset runs
// before any epoch adoption: a crash in between leaves a consistent
// (merely stale) repository whose old epoch makes the next sync bootstrap
// again, never a divergent journal under an adopted epoch.
func (n *Node) bootstrap(ctx context.Context) error {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, n.primary+"/v1/repl/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := n.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replication: snapshot returned %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	epoch, _, _, err := parseReplHeaders(resp.Header)
	if err != nil {
		return err
	}
	if own := n.repo.Epoch(); epoch < own {
		if n.staleEpochs != nil {
			n.staleEpochs.Inc()
		}
		return fmt.Errorf("%w (upstream %d, ours %d)", ErrStaleEpoch, epoch, own)
	}
	base, seq, err := storage.LoadBinaryAt(resp.Body)
	if err != nil {
		return fmt.Errorf("replication: decoding snapshot: %w", err)
	}
	if err := n.repo.ResetToSnapshot(base, seq); err != nil {
		return err
	}
	if epoch > n.repo.Epoch() {
		// The whole repository is now the new primary's history; the epoch
		// starts for us at the snapshot seq.
		if err := n.repo.AdvanceEpoch(epoch, seq); err != nil {
			return err
		}
	}
	if n.snapshotLoads != nil {
		n.snapshotLoads.Inc()
	}
	n.logger.Info("bootstrapped from primary snapshot", slog.Int("seq", seq))
	return nil
}

// parseReplHeaders reads the epoch, seq and optional fence-seq headers of
// a replication response. fence is -1 when the header is absent — the
// requester's epoch is current, or the sender predates fencing.
func parseReplHeaders(h http.Header) (epoch uint64, seq, fence int, err error) {
	epoch, err = strconv.ParseUint(h.Get(HeaderEpoch), 10, 64)
	if err != nil {
		return 0, 0, -1, fmt.Errorf("replication: bad %s header %q", HeaderEpoch, h.Get(HeaderEpoch))
	}
	seq, err = strconv.Atoi(h.Get(HeaderSeq))
	if err != nil {
		return 0, 0, -1, fmt.Errorf("replication: bad %s header %q", HeaderSeq, h.Get(HeaderSeq))
	}
	fence = -1
	if v := h.Get(HeaderFenceSeq); v != "" {
		fence, err = strconv.Atoi(v)
		if err != nil || fence < 0 {
			return 0, 0, -1, fmt.Errorf("replication: bad %s header %q", HeaderFenceSeq, v)
		}
	}
	return epoch, seq, fence, nil
}

// decodeFrames parses a stream body of CRC-framed journal records into
// entries, returning the longest valid prefix. The error, when non-nil,
// reports the torn or corrupt frame the prefix stops at; entries before
// it are intact (each passed its checksum and decoded) and safe to apply.
func decodeFrames(body []byte) ([]repository.Entry, error) {
	var entries []repository.Entry
	_, _, err := storage.ReadJournal(bytes.NewReader(body), func(p []byte) error {
		// Capture each entry as it validates: ReadJournal keeps exactly the
		// payloads this callback accepts, so entries is the valid prefix.
		var e repository.Entry
		if derr := json.Unmarshal(p, &e); derr != nil {
			return derr
		}
		entries = append(entries, e)
		return nil
	})
	return entries, err
}
