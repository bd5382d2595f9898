package simtime

import (
	"sync/atomic"
	"testing"
	"time"
)

// The identity contract in Clock's doc comment, one test per clause.

// A member reads the same identity before and after every kind of park:
// a sleep, a wait that times out, a wait that a signal ends, a yield and a
// Group.Wait, with other members taking the baton in between.
func TestMemberStableAcrossParkAndWake(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	g := s.NewGroup(nil)
	sig := s.NewSignal()
	for i := int64(1); i <= 4; i++ {
		g.Go(func() {
			me := s.Member()
			check := func(after string) {
				if got := s.Member(); got != me {
					t.Errorf("member %d reads %d after %s", me, got, after)
				}
			}
			s.Sleep(i)
			check("Sleep")
			s.Wait(i, s.NewSignal())
			check("a Wait that timed out")
			if i == 4 {
				sig.Fire()
			}
			s.Wait(Forever, sig)
			check("a Wait a signal ended")
			s.Wait(0, s.NewSignal())
			check("a yield")
			inner := s.NewGroup(nil)
			inner.Go(func() { s.Sleep(i) })
			inner.Wait()
			check("Group.Wait")
		})
	}
	root := s.Member()
	g.Wait()
	if got := s.Member(); got != root {
		t.Fatalf("the creator read %d before Group.Wait and %d after", root, got)
	}
}

func TestMemberDistinctPerGo(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	seen := map[uint64]bool{s.Member(): true}
	g := s.NewGroup(nil)
	const n = 50
	for i := 0; i < n; i++ {
		g.Go(func() {
			s.Sleep(3) // all n are alive at once
			me := s.Member()
			if me == 0 || seen[me] {
				t.Errorf("a member started by Go reads %d, which is taken or no identity", me)
			}
			seen[me] = true
		})
	}
	g.Wait()
	if len(seen) != n+1 {
		t.Fatalf("%d members and the creator hold %d identities", n, len(seen))
	}
}

// The creator hands its membership to a plain goroutine, as the harness
// does with the test body: that goroutine reads the creator's identity,
// keeps it while members started by Go come and go, and the creator, now
// outside, may look on.
func TestMemberHandOffKeepsRootIdentity(t *testing.T) {
	t.Parallel()
	for i := 0; i < 1000; i++ {
		s := NewVirtual()
		s.Limit(Forever - 1) // the last member to leave halts the clock
		root := s.Member()
		if root == 0 {
			t.Fatal("the creator of a clock has no identity")
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer s.Leave()
			sig := s.NewSignal()
			s.Go(func() {
				if me := s.Member(); me == root || me == 0 {
					t.Errorf("repeat %d: a spawned member reads %d, the root is %d", i, me, root)
				}
				s.Sleep(2)
				sig.Fire()
			})
			for _, park := range []func(){
				func() {},
				func() { s.Sleep(1) },
				func() { s.Wait(Forever, sig) },
			} {
				park()
				if got := s.Member(); got != root {
					t.Errorf("repeat %d: the goroutine holding the root membership reads %d, want %d", i, got, root)
				}
			}
		}()
		_ = s.Member() // an outside read, next to the members' own
		<-done
	}
}

// Halted, the clock has no baton holder: Member reads 0 from outside. An
// outside Fire restarts it and the woken member is itself again.
func TestMemberZeroWhileHalted(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	sig := s.NewSignal()
	halted := s.Limit(100)
	type reading struct{ before, after uint64 }
	got := make(chan reading, 1)
	s.Go(func() {
		r := reading{before: s.Member()}
		s.Wait(Forever, sig) // a deadlock until someone outside fires sig
		r.after = s.Member()
		got <- r
	})
	s.Leave()
	<-halted
	if m := s.Member(); m != 0 {
		t.Fatalf("a halted clock names member %d", m)
	}
	sig.Fire()
	select {
	case r := <-got:
		if r.before == 0 || r.after != r.before {
			t.Fatalf("the member read %d before the halt and %d after the restart", r.before, r.after)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the outside Fire did not restart the clock")
	}
	<-s.Shutdown()
}

// After Shutdown nobody is a member: not an outside goroutine (the
// harness's cleanup helper) and not one that held the baton and never
// parked (a body spinning past the watchdog).
func TestMemberZeroAfterShutdown(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	running, release := make(chan struct{}), make(chan struct{})
	got := make(chan [2]uint64, 1)
	s.Go(func() {
		before := s.Member()
		close(running)
		<-release // blocks outside the clock, holding the baton
		got <- [2]uint64{before, s.Member()}
	})
	s.Leave() // starts the member
	<-running
	drained := s.Shutdown()
	if m := s.Member(); m != 0 {
		t.Fatalf("a clock that was shut down names member %d", m)
	}
	close(release)
	if r := <-got; r[0] == 0 || r[1] != 0 {
		t.Fatalf("the abandoned member read %d before Shutdown and %d after, want its own and 0", r[0], r[1])
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("the census never drained")
	}
}

// The baton holder reads its identity without the clock's lock while an
// outside observer reads too: run under -race. What the observer sees is
// always an identity that was handed out, or 0.
func TestMemberReadableFromOutside(t *testing.T) {
	t.Parallel()
	s := NewVirtual()
	const members = 8
	var stop atomic.Bool
	observed := make(chan uint64, 1)
	go func() {
		var max uint64
		for !stop.Load() {
			if m := s.Member(); m > max {
				max = m
			}
		}
		observed <- max
	}()
	g := s.NewGroup(nil)
	for i := 0; i < members; i++ {
		g.Go(func() {
			me := s.Member()
			for j := 0; j < 200; j++ {
				s.Sleep(1)
				if got := s.Member(); got != me {
					t.Errorf("member %d reads %d", me, got)
					return
				}
			}
		})
	}
	g.Wait()
	stop.Store(true)
	if max := <-observed; max > members+1 {
		t.Fatalf("an outside read returned %d; only %d identities were handed out", max, members+1)
	}
}

func TestMemberZeroOnWallClock(t *testing.T) {
	t.Parallel()
	var unset *Scale
	if (&Scale{}).Member() != 0 || unset.Member() != 0 {
		t.Fatal("a wall-clock Scale has no members")
	}
}
