package serve

// Recover re-enqueues the journal's incomplete jobs after a restart. For
// each pending submission the rebuild callback turns the durable payload
// back into a runnable JobSpec (the serving layer cannot persist SolveFunc
// closures, so the maxsat layer owns that translation); jobs whose payload
// no longer rebuilds — an options format from a newer binary, say — are
// marked done and audited rather than wedging recovery.
//
// Each replayed job keeps its pre-crash ID, and the per-client admission
// bounds (rate limit, quota, queue depth) do not apply — those guard new
// work, and this work was already admitted by the previous life. Replay is
// idempotent by construction: a job whose certified answer was already
// durable completes instantly from the re-validated cache, and duplicate
// pending entries for the same formula coalesce onto one run with every
// original job ID preserved — so clients polling GET /jobs/{id} from
// before the crash find their job either finished or running, never gone.
//
// Recover returns once every pending job is re-enqueued (not once they
// finish): readiness means the server can account for its past promises,
// not that it has already kept them all.
func (s *Server) Recover(rebuild func(RecoveredJob) (JobSpec, error)) error {
	if s.journal == nil {
		return nil
	}
	// Hold every run start until all pending jobs are registered: a replay
	// that finished before its duplicate was admitted would turn the
	// duplicate into a cache hit instead of a coalesce. Held jobs start on
	// every return, error returns included, because Close waits for them.
	var held []func()
	defer func() {
		for _, start := range held {
			start()
		}
	}()
	for _, rj := range s.journal.pendingJobs() {
		spec, err := rebuild(rj)
		if err != nil {
			s.journal.markDone(rj.ID)
			s.audit(AuditEvent{Client: rj.Client, Action: "recover", JobID: rj.ID,
				Detail: "replay dropped: " + err.Error()})
			continue
		}
		if spec.Formula == nil {
			spec.Formula = rj.Formula
		}
		if _, err := s.admit(admission{spec: spec, origin: replay, id: rj.ID, detail: "replayed", hold: &held}); err != nil {
			return err
		}
	}
	s.journal.releasePending()
	return nil
}
