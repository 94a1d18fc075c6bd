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
	if s.cfg.Journal == nil {
		return nil
	}
	for _, rj := range s.cfg.Journal.Pending() {
		spec, err := rebuild(rj)
		if err != nil {
			s.cfg.Journal.markDone(rj.ID)
			s.audit(AuditEvent{Client: rj.Client, Action: "recover", JobID: rj.ID,
				Detail: "replay dropped: " + err.Error()})
			continue
		}
		if spec.Formula == nil {
			spec.Formula = rj.Formula
		}
		if _, err := s.admit(admission{spec: spec, origin: replay, id: rj.ID, detail: "replayed"}); err != nil {
			return err
		}
	}
	return nil
}
