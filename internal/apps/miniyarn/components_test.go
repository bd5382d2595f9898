package miniyarn

import (
	"strings"
	"testing"

	"zebraconf/internal/core/harness"
)

func newTestEnv(t *testing.T) *harness.Env {
	t.Helper()
	env := harness.NewEnv(NewRegistry(), nil, 1)
	t.Cleanup(env.Close)
	return env
}

func startRM(t *testing.T, env *harness.Env) *ResourceManager {
	t.Helper()
	rm, err := StartResourceManager(env, env.RT.NewConf())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rm.Stop)
	return rm
}

func TestAllocateEnforcesSchedulerLimits(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	rm := startRM(t, env)
	if _, err := rm.rpc(MethodRegisterNM.Name, []byte(`{"NMID":"nm0","MemoryMB":8192,"Vcores":8}`)); err != nil {
		t.Fatal(err)
	}
	// Over the memory limit (default 8192).
	_, err := rm.allocate(&AllocateReq{AppID: "a", MemoryMB: 9000, Vcores: 1})
	if err == nil || !strings.Contains(err.Error(), ParamMaxAllocMB) {
		t.Fatalf("over-limit allocation: %v", err)
	}
	// Over the vcore limit (default 4).
	_, err = rm.allocate(&AllocateReq{AppID: "a", MemoryMB: 128, Vcores: 5})
	if err == nil || !strings.Contains(err.Error(), ParamMaxAllocVcores) {
		t.Fatalf("over-vcore allocation: %v", err)
	}
	// At the limit: granted.
	resp, err := rm.allocate(&AllocateReq{AppID: "a", MemoryMB: 8192, Vcores: 4})
	if err != nil || resp.NMID != "nm0" {
		t.Fatalf("at-limit allocation = (%+v, %v)", resp, err)
	}
}

func TestAllocatePacksUntilFull(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	rm := startRM(t, env)
	if _, err := rm.rpc(MethodRegisterNM.Name, []byte(`{"NMID":"nm0","MemoryMB":1024,"Vcores":4}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rm.allocate(&AllocateReq{AppID: "a", MemoryMB: 256, Vcores: 1}); err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
	}
	if _, err := rm.allocate(&AllocateReq{AppID: "a", MemoryMB: 256, Vcores: 1}); err == nil {
		t.Fatal("allocation on a full node succeeded")
	}
}

func TestTokenLifetimeFollowsRMConf(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetInt(ParamTokenRenewIntvl, 500)
	rm, err := StartResourceManager(env, conf)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Stop()
	out, err := rm.rpc(MethodGetToken.Name, []byte(`{"Renewer":"r"}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"ID":1`) {
		t.Fatalf("token payload: %s", out)
	}
}

func TestTimelineDisabledRejects(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetBool(ParamTimelineEnabled, false)
	ahs, err := StartAppHistoryServer(env, conf)
	if err != nil {
		t.Fatal(err)
	}
	defer ahs.Stop()
	if _, err := ahs.serve(MethodGetHistory.Name, []byte(`{"AppID":"a"}`)); err == nil {
		t.Fatal("disabled timeline served a query")
	}
}

func TestTimelineRecordsEvents(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	ahs, err := StartAppHistoryServer(env, env.RT.NewConf())
	if err != nil {
		t.Fatal(err)
	}
	defer ahs.Stop()
	if _, err := ahs.serve(MethodPutEvent.Name, []byte(`{"AppID":"a","Event":"START"}`)); err != nil {
		t.Fatal(err)
	}
	out, err := ahs.serve(MethodGetHistory.Name, []byte(`{"AppID":"a"}`))
	if err != nil || !strings.Contains(string(out), "START") {
		t.Fatalf("history = (%s, %v)", out, err)
	}
}

// FuzzTableHandle hands arbitrary payloads to every operation the
// ResourceManager serves: each must come back as a response or an error,
// never a panic.
func FuzzTableHandle(f *testing.F) {
	methods := []string{
		MethodRegisterNM.Name, MethodHeartbeatNM.Name, MethodAllocate.Name,
		MethodGetToken.Name, MethodDrainNode.Name, MethodLiveNMs.Name,
	}
	for _, seed := range []string{
		`{"NMID":"nm0","MemoryMB":8192,"Vcores":8}`,
		`{"AppID":"a","MemoryMB":256,"Vcores":1}`,
		`{"Renewer":"r"}`, `{"NMID":7}`, `{"MemoryMB":-1}`, `{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rm := startRM(t, newTestEnv(t))
		for _, m := range methods {
			if out, err := rm.rpc(m, payload); err == nil && len(out) == 0 {
				t.Fatalf("%s(%q) returned neither a response nor an error", m, payload)
			}
		}
	})
}
