package serve

import (
	"context"
	"sync"
)

// sema is a context-aware weighted semaphore: the server's global worker
// budget. A sequential job acquires one slot; a portfolio job acquires one
// slot per racing member, so N concurrent jobs × M members can never
// oversubscribe the machine beyond the configured budget.
//
// Grants are FIFO: a wide acquire at the head of the queue blocks later
// narrow ones even while some slots are free. That is deliberate — it means
// a portfolio job cannot be starved forever by a stream of sequential jobs.
type sema struct {
	mu      sync.Mutex
	free    int
	cap     int
	waiters []*semWaiter
}

type semWaiter struct {
	n     int
	ready chan struct{}
}

func newSema(n int) *sema {
	return &sema{free: n, cap: n}
}

// acquire blocks until n slots are granted or ctx is cancelled. n is clamped
// to the semaphore's capacity by the caller (Server.admit), so every
// acquire can eventually be satisfied.
func (s *sema) acquire(ctx context.Context, n int) error {
	s.mu.Lock()
	if len(s.waiters) == 0 && s.free >= n {
		s.free -= n
		s.mu.Unlock()
		return nil
	}
	w := &semWaiter{n: n, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		granted := true
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				granted = false
				break
			}
		}
		if granted {
			// The grant raced the cancellation; hand the slots back.
			s.free += n
		}
		// Either way the queue changed shape: slots were returned, or a
		// (possibly wide, possibly head-of-line) waiter vanished and the
		// waiters behind it may now fit the slots that were reserved for it.
		s.grantLocked()
		s.mu.Unlock()
		return ctx.Err()
	}
}

func (s *sema) release(n int) {
	s.mu.Lock()
	s.free += n
	s.grantLocked()
	s.mu.Unlock()
}

func (s *sema) grantLocked() {
	for len(s.waiters) > 0 && s.waiters[0].n <= s.free {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.free -= w.n
		close(w.ready)
	}
}

// busy returns the number of slots currently granted.
func (s *sema) busy() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap - s.free
}
