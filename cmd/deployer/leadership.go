package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"time"

	"dif/internal/prism"
)

// settleLeadership decides who leads before anything else runs: the
// active deployer campaigns now; a standby blocks here — ingesting the
// leader's checkpoint stream — until its leader watch fires and it wins a
// later fencing term, and returns the waves its Failover resumed. Either
// way the lease is then kept renewed, and the peers' logs and leader
// watches fed, until stop is called; a deposed deployer's ticks are no-ops.
func settleLeadership(lead *prism.Leadership, standby bool, ttl time.Duration, out io.Writer) (resumed []prism.ResumedWave, stop func(), err error) {
	if standby {
		fmt.Fprintf(out, "standby: shadowing the leader's checkpoint stream (lease TTL %v)\n", ttl)
		if resumed, err = standBy(lead, ttl, out); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "standby took over at term %d\n", lead.Term())
	} else {
		won, err := lead.Campaign()
		if err != nil {
			return nil, nil, err
		}
		if !won {
			return nil, nil, fmt.Errorf("lost the leadership campaign at term %d: %w", lead.Term(), prism.ErrNotLeader)
		}
		fmt.Fprintf(out, "leading at term %d (lease TTL %v)\n", lead.Term(), ttl)
	}
	return resumed, every(leaseTick(ttl), func() {
		if lead.IsLeader() {
			lead.Renew()
			lead.ReplicationTick()
		}
	}), nil
}

// every runs f on its own goroutine at the given interval until the
// returned stop function is called; stop returns once the goroutine has
// exited.
func every(interval time.Duration, f func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f()
			case <-quit:
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}

// leaseTick paces lease renewal, replication keepalives, and the
// standby watch: several rounds per TTL so one lost frame cannot lapse
// a healthy leader's lease.
func leaseTick(ttl time.Duration) time.Duration {
	if tick := ttl / 3; tick > 0 {
		return tick
	}
	return 100 * time.Millisecond
}

// standBy blocks until this deployer wins a leadership term: it watches
// the leader's replication keepalives, campaigns once the leader has
// been silent past the watch thresholds (counted from this standby's
// start when it never heard one, as after starting once the leader died),
// and goes back to shadowing when another standby wins the race (or the
// old leader resurfaces at a higher term). Failover resumes the replicated waves — decided epochs
// driven to their persisted outcome, undecided ones aborted, none
// replanned or renumbered.
func standBy(lead *prism.Leadership, ttl time.Duration, out io.Writer) ([]prism.ResumedWave, error) {
	t := time.NewTicker(leaseTick(ttl))
	defer t.Stop()
	for range t.C {
		if !lead.LeaderSuspect(time.Now()) {
			continue
		}
		leader := cmp.Or(string(lead.Leader()), "(none heard)")
		fmt.Fprintf(out, "leader %s silent past the watch threshold: campaigning\n", leader)
		waves, won, err := lead.Failover()
		if errors.Is(err, prism.ErrNoQuorum) {
			// Not enough live agents to elect anyone right now — the old
			// lease is equally unrenewable, so nobody leads. Keep
			// shadowing and retry when the watch next fires.
			fmt.Fprintf(out, "campaign at term %d failed (%v); still shadowing\n", lead.Term(), err)
			continue
		}
		if err != nil {
			return nil, err
		}
		if won {
			return waves, nil
		}
	}
	return nil, nil
}
