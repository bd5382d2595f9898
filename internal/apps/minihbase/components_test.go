package minihbase

import (
	"strings"
	"testing"
	"testing/quick"

	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/core/harness"
)

func newTestEnv(t *testing.T) *harness.Env {
	t.Helper()
	env := harness.NewEnv(NewRegistry(), nil, 1)
	t.Cleanup(env.Close)
	return env
}

// Property: every thrift profile round-trips arbitrary bodies, and any
// single-flag skew fails decoding.
func TestThriftWireProperty(t *testing.T) {
	t.Parallel()
	fn := func(body []byte, compact, framed bool) bool {
		wire := thriftEncode(compact, framed, body)
		out, err := thriftDecode(compact, framed, wire)
		if err != nil || string(out) != string(body) {
			return false
		}
		if _, err := thriftDecode(!compact, framed, wire); err == nil {
			return false // protocol skew must fail
		}
		if _, err := thriftDecode(compact, !framed, wire); err == nil && len(body) > 0 {
			// Framing skew must fail. (An empty unframed message read as
			// framed is caught by the truncation check.)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThriftFrameSizeGuard(t *testing.T) {
	t.Parallel()
	// An unframed binary message read by a framed decoder reports an
	// invalid frame size — the real TFramedTransport symptom.
	wire := thriftEncode(false, false, []byte("payload"))
	_, err := thriftDecode(false, true, wire)
	if err == nil || !strings.Contains(err.Error(), "frame size") {
		t.Fatalf("framed decode of unframed data: %v", err)
	}
}

func TestMasterLocateConsistency(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	m, err := StartHMaster(env, conf)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if _, err := m.rpc(MethodLocate.Name, []byte(`{"Table":"t","Key":"k"}`)); err == nil {
		t.Fatal("locate with no region servers succeeded")
	}
	if _, err := m.rpc(MethodRegisterRS.Name, []byte(`{"RSID":"rs0","Addr":"rs0"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.rpc(MethodRegisterRS.Name, []byte(`{"RSID":"rs1","Addr":"rs1"}`)); err != nil {
		t.Fatal(err)
	}
	// Locate is deterministic for a fixed row.
	a, err := m.rpc(MethodLocate.Name, []byte(`{"Table":"t","Key":"row"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.rpc(MethodLocate.Name, []byte(`{"Table":"t","Key":"row"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("locate not deterministic: %s vs %s", a, b)
	}
}

func TestRegionServerOpenRegionCrossCheck(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	nn, err := minihdfs.StartNameNode(env, conf, minihdfs.NNAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Stop()
	m, err := StartHMaster(env, conf)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	rs, err := StartHRegionServer(env, conf, "rs0", minihdfs.NNAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Stop()

	if err := rs.OpenRegionDirect(conf, "r"); err != nil {
		t.Fatalf("agreeing open: %v", err)
	}
	other := env.RT.NewConf()
	other.SetInt(ParamMemstoreBlockMult, 99)
	if err := rs.OpenRegionDirect(other, "r2"); err == nil {
		t.Fatal("disagreeing open succeeded (the §7.1 trap must trip)")
	}
}

func TestRegistryTruthCounts(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	// HBase's own unsafe parameters plus everything layered from HDFS and
	// Hadoop Common.
	if r.Lookup(ParamThriftCompact) == nil || r.Lookup(minihdfs.ParamHeartbeatInterval) == nil {
		t.Fatal("layering broken")
	}
	if r.Len() < 70 {
		t.Fatalf("layered registry has only %d parameters", r.Len())
	}
}
