package miniyarn

import (
	"fmt"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// App returns the miniyarn application descriptor.
func App() *harness.App {
	return &harness.App{
		Name:        "miniyarn",
		Schema:      schema,
		NodeTypes:   []string{TypeResourceManager, TypeNodeManager, TypeAppHistory},
		Annotations: harness.AnnotationStats{NodeLines: 9, ConfLines: 6},
		Tests:       testSuite(),
	}
}

func testSuite() []harness.UnitTest {
	tests := []harness.UnitTest{
		{Name: "TestSubmitApplication", Run: testSubmitApplication},
		{Name: "TestAllocationAtMaxMB", Run: testAllocationAtMaxMB},
		{Name: "TestAllocationAtMaxVcores", Run: testAllocationAtMaxVcores},
		{Name: "TestTimelineQuery", Run: testTimelineQuery},
		{Name: "TestDelegationTokenExpiry", Run: testDelegationTokenExpiry},
		{Name: "TestNodeManagerLiveness", Run: testNodeManagerLiveness},
		{Name: "TestDrainNode", Run: testDrainNode},
		{Name: "TestSchedulerInternals", Run: testSchedulerInternals},
		{Name: "TestFlakyAllocation", Run: testFlakyAllocation},
	}
	return append(tests, functionLevelTests()...)
}

// startYarn is the common prologue: RM plus n NodeManagers sharing the
// unit test's configuration object.
func startYarn(t *harness.T, nms int) (*ResourceManager, *confkit.Conf) {
	conf := t.Env.RT.NewConf()
	rm, err := StartResourceManager(t.Env, conf)
	t.NoErr(err, "start resourcemanager")
	t.Env.Defer(rm.Stop)
	for i := 0; i < nms; i++ {
		nm, err := StartNodeManager(t.Env, conf, fmt.Sprintf("nm%d", i))
		t.NoErr(err, "start nodemanager")
		t.Env.Defer(nm.Stop)
	}
	return rm, conf
}

// dialRM opens a client connection using the unit test's configuration.
func dialRM(t *harness.T, conf *confkit.Conf) *rpcsim.Conn {
	conn, err := common.DialIPC(t.Env.Fabric, conf.Get(ParamRMAddress), conf, t.Env.Scale,
		common.SecurityFromConf(conf))
	t.NoErr(err, "dial resourcemanager")
	return conn
}

func testSubmitApplication(t *harness.T) {
	_, conf := startYarn(t, 2)
	client := dialRM(t, conf)
	resp, err := MethodAllocate.Call(client, AllocateReq{AppID: "app-1", MemoryMB: 512, Vcores: 1})
	t.NoErr(err, "allocate container")
	if resp.ContainerID == 0 || resp.NMID == "" {
		t.Fatalf("allocation returned empty container: %+v", resp)
	}
}

// testAllocationAtMaxMB requests exactly the CLIENT-configured maximum;
// the ResourceManager enforces its own (Table 3).
func testAllocationAtMaxMB(t *harness.T) {
	_, conf := startYarn(t, 2)
	client := dialRM(t, conf)
	req := AllocateReq{AppID: "app-max", MemoryMB: conf.GetInt(ParamMaxAllocMB), Vcores: 1}
	if req.MemoryMB > conf.GetInt(ParamNMMemoryMB) {
		// The configured scheduler maximum exceeds one node's capacity;
		// clamp like a real application master would.
		req.MemoryMB = conf.GetInt(ParamNMMemoryMB)
	}
	_, err := MethodAllocate.Call(client, req)
	t.NoErr(err, "allocate at the configured maximum memory")
}

func testAllocationAtMaxVcores(t *harness.T) {
	_, conf := startYarn(t, 2)
	client := dialRM(t, conf)
	req := AllocateReq{AppID: "app-vc", MemoryMB: 128, Vcores: conf.GetInt(ParamMaxAllocVcores)}
	if req.Vcores > conf.GetInt(ParamNMVcores) {
		req.Vcores = conf.GetInt(ParamNMVcores)
	}
	_, err := MethodAllocate.Call(client, req)
	t.NoErr(err, "allocate at the configured maximum vcores")
}

// testTimelineQuery exercises both timeline findings: the client consults
// the timeline only when ITS configuration enables it, resolves the web
// address with ITS http policy, and the server serves only when ITS side
// is enabled (Table 3: yarn.timeline-service.enabled, yarn.http.policy).
func testTimelineQuery(t *harness.T) {
	conf := t.Env.RT.NewConf()
	ahs, err := StartAppHistoryServer(t.Env, conf)
	t.NoErr(err, "start timeline server")
	t.Env.Defer(ahs.Stop)

	if !conf.GetBool(ParamTimelineEnabled) {
		return // the client side is configured without a timeline service
	}
	conn, err := common.DialWeb(t.Env.Fabric, ParamHTTPPolicy, conf.Get(ParamTimelineHost), conf, t.Env.Scale)
	t.NoErr(err, "connect to timeline web service")
	t.NoErr(MethodPutEvent.Call(conn, AppEvent{AppID: "app-7", Event: "SUBMITTED"}), "record timeline event")
	resp, err := MethodGetHistory.Call(conn, AppHistoryQuery{AppID: "app-7"})
	t.NoErr(err, "query timeline history")
	if len(resp.Events) != 1 || resp.Events[0] != "SUBMITTED" {
		t.Fatalf("timeline history = %v, want [SUBMITTED]", resp.Events)
	}
}

// testDelegationTokenExpiry checks the token lifetime against the CLIENT's
// renew-interval expectation — visible through the public token API
// (Table 3: yarn.resourcemanager.delegation.token.renew-interval).
func testDelegationTokenExpiry(t *harness.T) {
	_, conf := startYarn(t, 1)
	client := dialRM(t, conf)
	tok, err := MethodGetToken.Call(client, TokenReq{Renewer: "tester"})
	t.NoErr(err, "fetch delegation token")
	want := conf.GetTicks(ParamTokenRenewIntvl)
	got := tok.ExpiresAt - tok.IssuedAt
	if got != want {
		t.Fatalf("token lifetime %d ticks, want %d per the configured renew interval", got, want)
	}
}

// testNodeManagerLiveness covers the generous 20x liveness threshold: any
// candidate heartbeat skew stays harmless, so the parameter is
// heterogeneous-safe here.
func testNodeManagerLiveness(t *harness.T) {
	_, conf := startYarn(t, 2)
	client := dialRM(t, conf)
	t.Env.Scale.Sleep(5 * conf.GetTicks(ParamNMHeartbeat))
	live, err := MethodLiveNMs.Call(client, rpcsim.Empty{})
	t.NoErr(err, "count live nodemanagers")
	if live != 2 {
		t.Fatalf("%d live NodeManagers, want 2", live)
	}
}

// testDrainNode exercises a slow admin RPC: the server's keepalive cadence
// derives from ITS rpc-timeout while the client waits per ITS OWN — the
// common-library Table 3 finding (ipc.client.rpc-timeout.ms).
func testDrainNode(t *harness.T) {
	_, conf := startYarn(t, 1)
	client := dialRM(t, conf)
	t.NoErr(MethodDrainNode.Call(client, rpcsim.Empty{}), "drain a node (slow RPC)")
}

// testSchedulerInternals is the §7.1 private-state trap.
func testSchedulerInternals(t *harness.T) {
	rm, conf := startYarn(t, 1)
	if got, want := rm.SchedulerClass(), conf.Get(ParamSchedulerClass); got != want {
		t.Fatalf("resourcemanager private scheduler %q != client-configured %q", got, want)
	}
}

// testFlakyAllocation fails nondeterministically (hypothesis-testing
// fodder).
func testFlakyAllocation(t *harness.T) {
	_, conf := startYarn(t, 2)
	client := dialRM(t, conf)
	_, err := MethodAllocate.Call(client, AllocateReq{AppID: "app-f", MemoryMB: 256, Vcores: 1})
	t.NoErr(err, "allocate")
	if t.Env.Float64() < 0.2 {
		t.Fatalf("simulated race: allocation observed a node in transition")
	}
}

func functionLevelTests() []harness.UnitTest {
	return []harness.UnitTest{
		{Name: "TestTokenLifetimeMath", Run: func(t *harness.T) {
			tok := common.IssueToken(t.Env.Scale, 1, 50)
			if tok.ExpiresAt-tok.IssuedAt != 50 {
				t.Fatalf("token lifetime %d, want 50", tok.ExpiresAt-tok.IssuedAt)
			}
		}},
		{Name: "TestRegistryDefaults", Run: func(t *harness.T) {
			conf := t.Env.RT.NewConf()
			if conf.GetInt(ParamMaxAllocMB) <= 0 {
				t.Fatalf("missing default for %s", ParamMaxAllocMB)
			}
			if conf.Get(ParamHTTPPolicy) == "" {
				t.Fatalf("missing default for %s", ParamHTTPPolicy)
			}
		}},
		{Name: "TestWebAddrPolicy", Run: func(t *harness.T) {
			if _, err := common.WebAddr(common.PolicyHTTPSOnly, "timeline"); err != nil {
				t.Fatalf("WebAddr: %v", err)
			}
		}},
		{Name: "TestAllocateReqZero", Run: func(t *harness.T) {
			var req AllocateReq
			if req.MemoryMB != 0 || req.Vcores != 0 {
				t.Fatalf("zero value AllocateReq not zero")
			}
		}},
	}
}
