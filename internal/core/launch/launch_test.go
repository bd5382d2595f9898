package launch

import (
	"os/exec"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
)

// TestCoordinatorTierOnlyForSessions pins who gets which cache tier: the
// open store always backs the launcher's own runner, and goes behind the
// coordinator only for gateway workers, which cannot open it themselves —
// a subprocess worker opens the directory from its own flags. The wire bit
// is the coordinator's to derive from that (dist's tapped sessions pin it),
// never the launcher's to set.
func TestCoordinatorTierOnlyForSessions(t *testing.T) {
	app, err := apps.ByName("miniflink")
	if err != nil {
		t.Fatal(err)
	}
	store, err := diskcache.Open(t.TempDir(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := dist.ListenGateway("127.0.0.1:0", "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for name, tc := range map[string]struct {
		env    Env
		shared bool
	}{
		"subprocess workers": {Env{Cache: store, WorkerCmd: func() *exec.Cmd { return nil }}, false},
		"gateway workers":    {Env{Cache: store, Sessions: gw}, true},
	} {
		l, err := prepare(app, baseSpec(), tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if l.opts.CacheBackend != store {
			t.Errorf("%s: the store is not behind the launcher's own runner", name)
		}
		if got := l.dopts.SharedBackend != nil; got != tc.shared {
			t.Errorf("%s: coordinator tier = %v, want %v", name, got, tc.shared)
		}
		if l.dopts.Config.SharedPersistent {
			t.Errorf("%s: the launcher set the wire's shared_persistent itself", name)
		}
	}
	noCache := baseSpec()
	noCache.ExecCache = false
	l, err := prepare(app, noCache, Env{Cache: store, Sessions: gw})
	if err != nil {
		t.Fatal(err)
	}
	if l.dopts.SharedBackend != nil {
		t.Error("-exec-cache=false: the coordinator still fronts the store")
	}
}
