package repository

import (
	"verlog/internal/obs"
)

// Metrics are the repository's instrumentation points. All fields are
// nil-safe obs instruments, so an unwired repository records nothing at no
// cost. Wire them with Instrument, which registers the standard metric
// names; these names are the stable seam batching and sharding work will
// keep reporting through.
type Metrics struct {
	// AppendWrite is the journal append write (excluding fsync).
	AppendWrite *obs.Histogram
	// AppendFsync is the journal fsync — the dominant durability cost.
	AppendFsync *obs.Histogram
	// Compaction is the duration of Compact calls.
	Compaction *obs.Histogram
	// RecoverySeconds is the duration of the last recovery (open or repair).
	RecoverySeconds *obs.Gauge
	// Applies counts committed updates (replays excluded).
	Applies *obs.Counter
	// ReplayHits counts applies answered from the idempotency-key cache.
	ReplayHits *obs.Counter
	// ConstraintRejects counts updates refused by integrity constraints.
	ConstraintRejects *obs.Counter
	// CommitBatchSize is the number of journal records the last group-commit
	// batch carried (1 = no batching benefit; >1 = amortized fsync).
	CommitBatchSize *obs.Gauge
	// CommitBatches counts flushed group-commit batches (i.e. fsyncs);
	// CommitBatchRecords counts the records they carried. Their ratio is
	// the average batch size.
	CommitBatches      *obs.Counter
	CommitBatchRecords *obs.Counter
	// CommitWait is how long an apply waits for its batch to become
	// durable (from joining the batch to the fsync completing).
	CommitWait *obs.Histogram
	// RecordBytes is the size of each committed journal record, frame
	// included: what one update costs on disk, in memory and on the wire.
	RecordBytes *obs.Histogram
	// HeadCacheHits counts reads served wait-free from the in-memory
	// published head (Head, At, Initial, Log) — with the resident head,
	// every read is a hit and none touches disk.
	HeadCacheHits *obs.Counter
	// ReplicaApplies counts journal entries applied from a replication
	// stream (follower mode) rather than evaluated locally.
	ReplicaApplies *obs.Counter
	// PlanCacheHits counts applies that reused compiled match plans from
	// the per-program plan cache; PlanCacheMisses counts applies that had
	// to compile (first sight of a program, or an expired seq class).
	PlanCacheHits   *obs.Counter
	PlanCacheMisses *obs.Counter
}

// Instrument wires the repository to the registry under the standard
// verlog_* metric names and records the recovery the last Open performed.
func (r *Repository) Instrument(reg *obs.Registry) {
	m := &Metrics{
		AppendWrite:        reg.Histogram("verlog_journal_append_seconds", "Journal append write latency (excluding fsync)."),
		AppendFsync:        reg.Histogram("verlog_journal_fsync_seconds", "Journal fsync latency."),
		Compaction:         reg.Histogram("verlog_compaction_seconds", "Compact duration."),
		RecoverySeconds:    reg.Gauge("verlog_recovery_seconds", "Duration of the last open-time recovery."),
		Applies:            reg.Counter("verlog_applies_total", "Committed updates (idempotent replays excluded)."),
		ReplayHits:         reg.Counter("verlog_idempotency_replays_total", "Applies answered from the idempotency-key cache."),
		ConstraintRejects:  reg.Counter("verlog_constraint_rejects_total", "Updates refused by integrity constraints."),
		CommitBatchSize:    reg.Gauge("verlog_commit_batch_size", "Journal records in the last group-commit batch."),
		CommitBatches:      reg.Counter("verlog_commit_batches_total", "Group-commit batches flushed (one fsync each)."),
		CommitBatchRecords: reg.Counter("verlog_commit_batch_records_total", "Journal records flushed across all group-commit batches."),
		CommitWait:         reg.Histogram("verlog_commit_wait_seconds", "Time an apply waits for its group-commit batch to become durable."),
		RecordBytes:        reg.SizeHistogram("verlog_journal_record_bytes", "Size of committed journal records, frame included."),
		HeadCacheHits:      reg.Counter("verlog_head_cache_hits_total", "Reads served wait-free from the in-memory published head."),
		ReplicaApplies:     reg.Counter("verlog_replica_applies_total", "Journal entries applied from a replication stream."),
		PlanCacheHits:      reg.Counter("verlog_plan_cache_hits_total", "Applies that reused cached compiled match plans."),
		PlanCacheMisses:    reg.Counter("verlog_plan_cache_misses_total", "Applies that compiled match plans afresh."),
	}
	r.metricsP.Store(m)
	// The seq gauges read the published head at scrape time: head_seq is
	// the durable head every read serves from; journal_seq is the highest
	// seq resident in the journal (they are equal by invariant — a lasting
	// divergence on a dashboard means the commit path is wedged). On a
	// follower, primary head_seq minus local head_seq is the lag in
	// updates.
	headSeq := reg.Gauge("verlog_head_seq", "Journal seq of the published (durable, readable) head.")
	journalSeq := reg.Gauge("verlog_journal_seq", "Highest journal seq resident on disk (snapshot seq + resident entries).")
	reg.RegisterCollector(func() {
		hs := r.published.Load()
		if hs == nil {
			return
		}
		headSeq.Set(float64(hs.seq))
		journalSeq.Set(float64(hs.snapSeq + len(hs.entries)))
	})
	r.commitMu.Lock()
	rec := r.recovery
	r.commitMu.Unlock()
	m.RecoverySeconds.SetDuration(rec.Duration)
}
