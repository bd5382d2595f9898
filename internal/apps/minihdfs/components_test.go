package minihdfs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"zebraconf/internal/core/harness"
)

// newTestEnv builds an agent-free environment for direct component tests.
func newTestEnv(t *testing.T) *harness.Env {
	t.Helper()
	env := harness.NewEnv(NewRegistry(), nil, 1)
	t.Cleanup(env.Close)
	return env
}

func TestNameNodeFsLimits(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetInt(ParamMaxComponentLength, 8)
	conf.SetInt(ParamMaxDirectoryItems, 2)
	nn, err := StartNameNode(env, conf, "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Stop()

	if err := nn.mkdir("/ok"); err != nil {
		t.Fatalf("short mkdir: %v", err)
	}
	if err := nn.mkdir("/waytoolongname"); err == nil {
		t.Fatal("component length limit not enforced")
	}
	if err := nn.mkdir("/two"); err != nil {
		t.Fatalf("second mkdir: %v", err)
	}
	if err := nn.mkdir("/three"); err == nil || !strings.Contains(err.Error(), "item count") {
		t.Fatalf("directory item limit not enforced: %v", err)
	}
	// mkdir is idempotent and does not double-count.
	if err := nn.mkdir("/ok"); err != nil {
		t.Fatalf("idempotent mkdir: %v", err)
	}
}

func TestNameNodeDeleteQueuesReplicaRemoval(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	nn, err := StartNameNode(env, conf, "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Stop()

	if err := nn.register(&RegisterReq{DNID: "dn0", DataAddr: "dn0-data", PeerAddr: "dn0-peer"}); err != nil {
		t.Fatal(err)
	}
	if err := nn.create(&CreateReq{Path: "/f", Replication: 1, BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	alloc, err := nn.addBlock(&AddBlockReq{Path: "/f", Len: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.blockReport(&BlockReportReq{DNID: "dn0", BlockID: alloc.BlockID}, true); err != nil {
		t.Fatal(err)
	}
	if err := nn.delete("/f"); err != nil {
		t.Fatal(err)
	}
	// The pending deletion travels on the next heartbeat response.
	resp, err := nn.heartbeat(&HeartbeatReq{DNID: "dn0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.DeleteBlocks) != 1 || resp.DeleteBlocks[0] != alloc.BlockID {
		t.Fatalf("heartbeat delete commands = %v", resp.DeleteBlocks)
	}
	// Replica accounting holds until the report arrives.
	if s, _ := nn.stats(nil); s.Replicas != 1 {
		t.Fatalf("replicas before report = %d", s.Replicas)
	}
	if err := nn.blockReport(&BlockReportReq{DNID: "dn0", BlockID: alloc.BlockID}, false); err != nil {
		t.Fatal(err)
	}
	if s, _ := nn.stats(nil); s.Replicas != 0 {
		t.Fatalf("replicas after report = %d", s.Replicas)
	}
}

func TestNameNodeApproveMoveDomains(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	conf.SetInt(ParamUpgradeDomainFactor, 3)
	nn, err := StartNameNode(env, conf, "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Stop()

	for _, dn := range []struct{ id, domain string }{
		{"a", "ud-0"}, {"b", "ud-1"}, {"c", "ud-2"}, {"d", "ud-1"},
	} {
		if err := nn.register(&RegisterReq{DNID: dn.id, Domain: dn.domain}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nn.create(&CreateReq{Path: "/f", Replication: 3, BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	alloc, err := nn.addBlock(&AddBlockReq{Path: "/f", Len: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, dn := range []string{"a", "b", "c"} {
		if err := nn.blockReport(&BlockReportReq{DNID: dn, BlockID: alloc.BlockID}, true); err != nil {
			t.Fatal(err)
		}
	}
	// a(ud-0) -> d(ud-1): replicas collapse onto 2 domains < factor 3.
	if err := nn.approveMove(&ApproveMoveReq{BlockID: alloc.BlockID, FromDN: "a", ToDN: "d"}); err == nil {
		t.Fatal("placement violation approved")
	}
	// b(ud-1) -> d(ud-1): still 3 distinct domains; fine.
	if err := nn.approveMove(&ApproveMoveReq{BlockID: alloc.BlockID, FromDN: "b", ToDN: "d"}); err != nil {
		t.Fatalf("legal move declined: %v", err)
	}
}

func TestImageCompressionRoundTrip(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	plain := env.RT.NewConf()
	compressed := env.RT.NewConf()
	compressed.SetBool(ParamImageCompress, true)

	nn1, err := StartNameNode(env, plain, "nn1")
	if err != nil {
		t.Fatal(err)
	}
	defer nn1.Stop()
	nn2, err := StartNameNode(env, compressed, "nn2")
	if err != nil {
		t.Fatal(err)
	}
	defer nn2.Stop()

	img1, c1, err := nn1.Image()
	if err != nil || c1 {
		t.Fatalf("plain image: compressed=%v err=%v", c1, err)
	}
	img2, c2, err := nn2.Image()
	if err != nil || !c2 {
		t.Fatalf("compressed image: compressed=%v err=%v", c2, err)
	}
	raw2, err := DecodeImage(img2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1, raw2) {
		t.Fatal("decompressed image differs from the plain one")
	}
}

func TestDataNodeChecksumEnforcement(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	nn, err := StartNameNode(env, conf, "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Stop()
	dn, err := StartDataNode(env, conf, "dn0", "nn", DataNodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Stop()

	data := testData(600)
	// Sums computed with a different chunking than the DataNode's.
	badConf := env.RT.NewConf()
	badConf.SetInt(ParamBytesPerChecksum, 100)
	err = dn.writeBlock(&WriteBlockReq{BlockID: 1, Data: data, Sums: []uint32{1, 2, 3, 4, 5, 6}})
	if err == nil {
		t.Fatal("bogus checksums accepted")
	}
}

func TestDataNodeCorruptBlock(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	nn, err := StartNameNode(env, conf, "nn")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Stop()
	dn, err := StartDataNode(env, conf, "dn0", "nn", DataNodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Stop()
	dn.storeBlock(7, testData(64), []uint32{1})
	if !dn.CorruptBlock(7) {
		t.Fatal("CorruptBlock on a stored block failed")
	}
	if dn.CorruptBlock(8) {
		t.Fatal("CorruptBlock on a missing block succeeded")
	}
	if dn.BlockCount() != 1 {
		t.Fatalf("BlockCount = %d", dn.BlockCount())
	}
}

func TestBalancerNoMovesForBalancedCluster(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	c, err := StartCluster(env, conf, ClusterOptions{DataNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	client, err := c.Client(conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitActive(client, c.ActiveDeadline(conf)); err != nil {
		t.Fatal(err)
	}
	b, err := StartBalancer(env, conf, "balancer", NNAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if err := b.Run(); err != nil {
		t.Fatalf("empty cluster balancing: %v", err)
	}
}

func TestErrBalancerTimeoutIdentity(t *testing.T) {
	t.Parallel()
	if !errors.Is(ErrBalancerTimeout, ErrBalancerTimeout) {
		t.Fatal("sentinel broken")
	}
}

// Property: splitPath never loses information for well-formed paths.
func TestSplitPathProperty(t *testing.T) {
	t.Parallel()
	fn := func(segs []uint8) bool {
		path := ""
		for _, s := range segs {
			path += "/" + string(rune('a'+s%26))
		}
		if path == "" {
			return true
		}
		parent, name := splitPath(path)
		if parent == "/" {
			return "/"+name == path
		}
		return parent+"/"+name == path
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWebHostForPolicies(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	host, err := WebHostFor(conf, "nn")
	if err != nil || host != "nn-nn-web" {
		t.Fatalf("default web host = (%q, %v)", host, err)
	}
	conf.Set(ParamHTTPPolicy, "HTTPS_ONLY")
	host, err = WebHostFor(conf, "nn")
	if err != nil || host != "nn-nn-web-ssl" {
		t.Fatalf("https web host = (%q, %v)", host, err)
	}
	conf.Set(ParamHTTPPolicy, "BOGUS")
	if _, err := WebHostFor(conf, "nn"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestJournalNodeSegments(t *testing.T) {
	t.Parallel()
	env := newTestEnv(t)
	conf := env.RT.NewConf()
	jn, err := StartJournalNode(env, conf, "jn")
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Stop()

	mustOK := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = jn.rpc(MethodJournal.Name, []byte(`{"SegmentID":0,"Edits":["e1","e2"]}`))
	mustOK(err)
	_, err = jn.rpc(MethodFinalizeSegment.Name, []byte(`{"SegmentID":0}`))
	mustOK(err)
	_, err = jn.rpc(MethodJournal.Name, []byte(`{"SegmentID":1,"Edits":["e3"]}`))
	mustOK(err)

	finalizedOnly, err := jn.getEdits(&GetEditsReq{SinceTxn: 0, InProgressOK: false})
	mustOK(err)
	if len(finalizedOnly.Edits) != 2 {
		t.Fatalf("finalized tail = %v", finalizedOnly.Edits)
	}
	// In-progress requests are declined unless the JournalNode enables
	// them.
	if _, err := jn.getEdits(&GetEditsReq{SinceTxn: 0, InProgressOK: true}); err == nil {
		t.Fatal("in-progress tail served although disabled")
	}
	conf.SetBool(ParamTailEditsInProgress, true)
	all, err := jn.getEdits(&GetEditsReq{SinceTxn: 0, InProgressOK: true})
	mustOK(err)
	if len(all.Edits) != 3 {
		t.Fatalf("in-progress tail = %v", all.Edits)
	}
	// SinceTxn skips already-applied edits.
	rest, err := jn.getEdits(&GetEditsReq{SinceTxn: 2, InProgressOK: true})
	mustOK(err)
	if len(rest.Edits) != 1 || rest.Edits[0] != "e3" {
		t.Fatalf("tail after txn 2 = %v", rest.Edits)
	}
}
