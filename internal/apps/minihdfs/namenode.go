package minihdfs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
	"zebraconf/internal/simtime"
)

// monitorTicks is the cadence of the NameNode's liveness monitor.
const monitorTicks = 5

// saveNamespaceTicks models the cost of serializing a namespace image; it
// makes saveNamespace a "slow" RPC that exercises timeout parameters.
const saveNamespaceTicks = 600

type fileMeta struct {
	replication int
	blockSize   int64
	blockIDs    []int64
	complete    bool
	policy      string
}

type blockMeta struct {
	len       int64
	file      string
	locations map[string]bool // DN IDs
}

type dnState struct {
	id        string
	dataAddr  string
	peerAddr  string
	domain    string
	tier      string
	lastHB    int64
	capacity  int64
	remaining int64
	blocks    int
	dead      bool
	stale     bool
}

// NameNode is the namespace and block manager.
type NameNode struct {
	env  *harness.Env
	conf *confkit.Conf
	addr string

	srv *rpcsim.Server
	web *rpcsim.Server

	mu          sync.Mutex
	nextBlockID int64
	dirs        map[string]map[string]bool
	files       map[string]*fileMeta
	blocks      map[int64]*blockMeta
	dns         map[string]*dnState
	corrupt     map[int64]bool
	pendingDel  map[string][]int64
	snapshots   map[string]map[string][]string // root -> snapshot name -> file paths

	stop  *simtime.Signal
	loops *simtime.Group
}

// StartNameNode boots a NameNode bound to addr. The constructor is the
// annotated init function (paper Fig. 2b): it opens the agent's init window,
// replaces the shared configuration reference with a clone, reads its
// parameters, binds its IPC and web endpoints, and starts the liveness
// monitor.
func StartNameNode(env *harness.Env, conf *confkit.Conf, addr string) (*NameNode, error) {
	env.RT.StartInit(TypeNameNode)
	defer env.RT.StopInit()

	nn := &NameNode{
		env:        env,
		conf:       conf.RefToClone(),
		addr:       addr,
		dirs:       map[string]map[string]bool{"/": {}},
		files:      make(map[string]*fileMeta),
		blocks:     make(map[int64]*blockMeta),
		dns:        make(map[string]*dnState),
		corrupt:    make(map[int64]bool),
		pendingDel: make(map[string][]int64),
		snapshots:  make(map[string]map[string][]string),
		stop:       env.Scale.NewSignal(),
		loops:      env.NewGroup(),
	}
	// Local-effect parameters, read at init like the real NameNode does.
	_ = nn.conf.Get(ParamNameDir)
	_ = nn.conf.GetInt(ParamNNHandlerCount)
	_ = nn.conf.GetBool(ParamFSLockFair)
	_ = nn.conf.GetBool(ParamAuditLogAsync)
	_ = nn.conf.Get(ParamSafemodeThreshold)
	_ = nn.conf.GetInt(ParamExtraEditsRetained)

	sec := common.SecurityFromConf(nn.conf)
	sec.RequireToken = nn.conf.GetBool(ParamBlockAccessToken)
	srv, err := common.ServeIPC(env.Fabric, addr, nn.conf, env.Scale, sec, nameNodeRPC.Bind("minihdfs: namenode", nn))
	if err != nil {
		return nil, fmt.Errorf("minihdfs: start namenode: %w", err)
	}
	nn.srv = srv

	host, err := nn.webHost()
	if err != nil {
		srv.Close()
		return nil, err
	}
	web, err := common.ServeWeb(env.Fabric, ParamHTTPPolicy, host, nn.conf, env.Scale,
		nameNodeWebRPC.Bind("minihdfs: namenode web", nn))
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("minihdfs: start namenode web: %w", err)
	}
	nn.web = web

	nn.loops.Go(nn.monitor)
	return nn, nil
}

// webHost resolves the web host for the NameNode's configured policy. The
// host is prefixed with the node's IPC address so federated tests can run
// several NameNodes on one fabric.
func (nn *NameNode) webHost() (string, error) {
	return WebHostFor(nn.conf, nn.addr)
}

// WebHostFor renders the web host a NameNode at nnAddr binds under conf's
// policy; clients resolve the same way with their own configuration.
func WebHostFor(conf *confkit.Conf, nnAddr string) (string, error) {
	switch policy := conf.Get(ParamHTTPPolicy); policy {
	case common.PolicyHTTPOnly:
		return nnAddr + "-" + conf.Get(ParamHTTPAddress), nil
	case common.PolicyHTTPSOnly:
		return nnAddr + "-" + conf.Get(ParamHTTPSAddress), nil
	default:
		return "", fmt.Errorf("minihdfs: bad %s %q", ParamHTTPPolicy, policy)
	}
}

// Addr returns the NameNode's IPC address.
func (nn *NameNode) Addr() string { return nn.addr }

// Stop shuts the NameNode down.
func (nn *NameNode) Stop() {
	nn.stop.Fire()
	nn.srv.Close()
	nn.web.Close()
	nn.loops.Wait()
}

// monitor runs the liveness loop: a DataNode is dead after
// 2*recheck + 10*heartbeatInterval silent ticks (the HDFS formula) and stale
// after staleInterval. Thresholds are read from the configuration on every
// pass, as the real monitor re-reads its (reconfigurable) settings.
func (nn *NameNode) monitor() {
	for !nn.env.Scale.Wait(monitorTicks, nn.stop) {
		dead := 2*nn.conf.GetTicks(ParamRecheckInterval) + 10*nn.conf.GetTicks(ParamHeartbeatInterval)
		stale := nn.conf.GetTicks(ParamStaleInterval)
		now := nn.env.Scale.Now()
		nn.mu.Lock()
		for _, dn := range nn.dns {
			silent := now - dn.lastHB
			dn.dead = silent > dead
			dn.stale = silent > stale
		}
		nn.mu.Unlock()
	}
}

// ReplWorkLimit is a private accessor used by an overly intimate unit test
// (a §7.1 false-positive trap): real clients cannot observe this value.
func (nn *NameNode) ReplWorkLimit() int64 {
	nn.mu.Lock()
	live := 0
	for _, dn := range nn.dns {
		if !dn.dead {
			live++
		}
	}
	nn.mu.Unlock()
	return nn.conf.GetInt(ParamReplWorkMulti) * int64(live)
}

func (nn *NameNode) register(req *RegisterReq) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	tier := req.Tier
	if tier == "" {
		tier = TierDisk
	}
	nn.dns[req.DNID] = &dnState{
		id:       req.DNID,
		peerAddr: req.PeerAddr,
		dataAddr: req.DataAddr,
		domain:   req.Domain,
		tier:     tier,
		lastHB:   nn.env.Scale.Now(),
	}
	return nil
}

func (nn *NameNode) heartbeat(req *HeartbeatReq) (HeartbeatResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	dn, ok := nn.dns[req.DNID]
	if !ok {
		return HeartbeatResp{}, fmt.Errorf("minihdfs: heartbeat from unregistered datanode %s", req.DNID)
	}
	dn.lastHB = nn.env.Scale.Now()
	dn.capacity = req.Capacity
	dn.remaining = req.Remaining
	resp := HeartbeatResp{DeleteBlocks: nn.pendingDel[req.DNID]}
	delete(nn.pendingDel, req.DNID)
	return resp, nil
}

func (nn *NameNode) blockReport(req *BlockReportReq, received bool) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	dn, ok := nn.dns[req.DNID]
	if !ok {
		return fmt.Errorf("minihdfs: block report from unregistered datanode %s", req.DNID)
	}
	if received {
		dn.blocks++
		if b, ok := nn.blocks[req.BlockID]; ok {
			b.locations[req.DNID] = true
		}
	} else {
		if dn.blocks > 0 {
			dn.blocks--
		}
		if b, ok := nn.blocks[req.BlockID]; ok {
			delete(b.locations, req.DNID)
		}
	}
	return nil
}

// checkLimits enforces the fs-limits parameters on one new child name.
func (nn *NameNode) checkLimits(parent, name string) error {
	maxLen := nn.conf.GetInt(ParamMaxComponentLength)
	if maxLen > 0 && int64(len(name)) > maxLen {
		return fmt.Errorf("minihdfs: component name %q length %d exceeds maximum limit %d on NameNode",
			abbreviate(name), len(name), maxLen)
	}
	maxItems := nn.conf.GetInt(ParamMaxDirectoryItems)
	if maxItems > 0 && int64(len(nn.dirs[parent])) >= maxItems {
		return fmt.Errorf("minihdfs: directory %s item count exceeds maximum limit %d on NameNode",
			parent, maxItems)
	}
	return nil
}

func abbreviate(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}

func (nn *NameNode) create(req *CreateReq) error {
	parent, name := splitPath(req.Path)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.dirs[parent]; !ok {
		return fmt.Errorf("minihdfs: parent directory %s does not exist", parent)
	}
	if _, ok := nn.files[req.Path]; ok {
		return fmt.Errorf("minihdfs: file %s already exists", req.Path)
	}
	if err := nn.checkLimits(parent, name); err != nil {
		return err
	}
	repl := req.Replication
	if repl <= 0 {
		repl = 1
	}
	bs := req.BlockSize
	if bs <= 0 {
		bs = 1024
	}
	nn.files[req.Path] = &fileMeta{replication: repl, blockSize: bs}
	nn.dirs[parent][name] = true
	return nil
}

func (nn *NameNode) addBlock(req *AddBlockReq) (AddBlockResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return AddBlockResp{}, fmt.Errorf("minihdfs: addBlock on missing file %s", req.Path)
	}
	if f.complete {
		return AddBlockResp{}, fmt.Errorf("minihdfs: addBlock on completed file %s", req.Path)
	}
	targets := nn.chooseTargetsLocked(f.replication, nil)
	if len(targets) == 0 {
		return AddBlockResp{}, fmt.Errorf("minihdfs: no live datanodes for %s", req.Path)
	}
	nn.nextBlockID++
	id := nn.nextBlockID
	nn.blocks[id] = &blockMeta{len: req.Len, file: req.Path, locations: make(map[string]bool)}
	f.blockIDs = append(f.blockIDs, id)
	resp := AddBlockResp{BlockID: id}
	for _, dn := range targets {
		resp.DataAddrs = append(resp.DataAddrs, dn.dataAddr)
		resp.PeerAddrs = append(resp.PeerAddrs, dn.peerAddr)
		resp.DNIDs = append(resp.DNIDs, dn.id)
	}
	return resp, nil
}

// chooseTargetsLocked picks up to n live DataNodes, least loaded first.
func (nn *NameNode) chooseTargetsLocked(n int, exclude map[string]bool) []*dnState {
	var cands []*dnState
	for _, dn := range nn.dns {
		if dn.dead || exclude[dn.id] {
			continue
		}
		cands = append(cands, dn)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].blocks != cands[j].blocks {
			return cands[i].blocks < cands[j].blocks
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
}

func (nn *NameNode) complete(req *PathReq) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return fmt.Errorf("minihdfs: complete on missing file %s", req.Path)
	}
	f.complete = true
	return nil
}

func (nn *NameNode) list(req *PathReq) (ListResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	children, ok := nn.dirs[req.Path]
	if !ok {
		return ListResp{}, fmt.Errorf("minihdfs: list on missing directory %s", req.Path)
	}
	var names []string
	for name := range children {
		names = append(names, name)
	}
	sort.Strings(names)
	return ListResp{Names: names}, nil
}

// delete removes a file's metadata immediately and queues replica deletions
// for the hosting DataNodes; replica accounting drops only when each
// DataNode reports the deletion (immediately or lazily, per its own
// incremental block report interval — the visibility finding of Table 3).
func (nn *NameNode) delete(path string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[path]
	if !ok {
		return fmt.Errorf("minihdfs: delete on missing file %s", path)
	}
	for _, b := range f.blockIDs {
		blk := nn.blocks[b]
		if blk == nil {
			continue
		}
		for dn := range blk.locations {
			nn.pendingDel[dn] = append(nn.pendingDel[dn], b)
		}
		delete(nn.blocks, b)
		delete(nn.corrupt, b)
	}
	delete(nn.files, path)
	parent, name := splitPath(path)
	delete(nn.dirs[parent], name)
	return nil
}

func (nn *NameNode) mkdir(path string) error {
	parent, name := splitPath(path)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.dirs[parent]; !ok {
		return fmt.Errorf("minihdfs: parent directory %s does not exist", parent)
	}
	if _, ok := nn.dirs[path]; ok {
		return nil // mkdir is idempotent
	}
	if err := nn.checkLimits(parent, name); err != nil {
		return err
	}
	nn.dirs[path] = map[string]bool{}
	nn.dirs[parent][name] = true
	return nil
}

func (nn *NameNode) stats(*rpcsim.Empty) (StatsResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	stats := StatsResp{}
	stats.Files = len(nn.files)
	stats.Blocks = len(nn.blocks)
	for _, dn := range nn.dns {
		stats.Replicas += dn.blocks
		stats.CapacityTotal += dn.capacity
		stats.Remaining += dn.remaining
		if dn.dead {
			stats.DeadDNs++
		} else {
			stats.LiveDNs++
		}
		if dn.stale {
			stats.StaleDNs++
		}
	}
	return stats, nil
}

func (nn *NameNode) datanodeReport(*rpcsim.Empty) (DatanodeReportResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var resp DatanodeReportResp
	for _, dn := range nn.dns {
		resp.Nodes = append(resp.Nodes, DNInfo{
			DNID: dn.id, PeerAddr: dn.peerAddr, Domain: dn.domain, Tier: dn.tier,
			Blocks: dn.blocks, Capacity: dn.capacity, Remaining: dn.remaining,
			Dead: dn.dead, Stale: dn.stale,
		})
	}
	sort.Slice(resp.Nodes, func(i, j int) bool { return resp.Nodes[i].DNID < resp.Nodes[j].DNID })
	return resp, nil
}

func (nn *NameNode) blocksOnDN(dnID string) BlocksOnDNResp {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var resp BlocksOnDNResp
	for id, b := range nn.blocks {
		if !b.locations[dnID] {
			continue
		}
		var locs []string
		for dn := range b.locations {
			locs = append(locs, dn)
		}
		sort.Strings(locs)
		resp.Blocks = append(resp.Blocks, BlockOnDN{BlockID: id, Len: b.len, Locations: locs})
	}
	sort.Slice(resp.Blocks, func(i, j int) bool { return resp.Blocks[i].BlockID < resp.Blocks[j].BlockID })
	return resp
}

func (nn *NameNode) additionalDN(req *AdditionalDNReq) (AdditionalDNResp, error) {
	if !nn.conf.GetBool(ParamReplaceDNOnFailure) {
		return AdditionalDNResp{}, fmt.Errorf(
			"minihdfs: NameNode refuses to find an additional DataNode: %s is disabled", ParamReplaceDNOnFailure)
	}
	excl := make(map[string]bool, len(req.Exclude))
	for _, id := range req.Exclude {
		excl[id] = true
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	targets := nn.chooseTargetsLocked(1, excl)
	if len(targets) == 0 {
		return AdditionalDNResp{}, fmt.Errorf("minihdfs: no additional datanode available")
	}
	return AdditionalDNResp{DNID: targets[0].id, DataAddr: targets[0].dataAddr, PeerAddr: targets[0].peerAddr}, nil
}

func (nn *NameNode) reportBadBlocks(req *BadBlocksReq) error {
	nn.mu.Lock()
	for _, b := range req.BlockIDs {
		nn.corrupt[b] = true
	}
	nn.mu.Unlock()
	return nil
}

func (nn *NameNode) listCorrupt(*rpcsim.Empty) (ListCorruptResp, error) {
	max := nn.conf.GetInt(ParamMaxCorruptReturned)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var ids []int64
	for b := range nn.corrupt {
		ids = append(ids, b)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	resp := ListCorruptResp{BlockIDs: ids}
	if max > 0 && int64(len(ids)) > max {
		resp.BlockIDs = ids[:max]
		resp.Truncated = true
	}
	return resp, nil
}

func (nn *NameNode) createSnapshot(req *SnapshotReq) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.dirs[req.Root]; !ok {
		return fmt.Errorf("minihdfs: snapshot root %s does not exist", req.Root)
	}
	snaps := nn.snapshots[req.Root]
	if snaps == nil {
		snaps = make(map[string][]string)
		nn.snapshots[req.Root] = snaps
	}
	snaps[req.Name] = nn.filesUnderLocked(req.Root)
	return nil
}

func (nn *NameNode) filesUnderLocked(root string) []string {
	var out []string
	for path := range nn.files {
		if path == root || strings.HasPrefix(path, root+"/") || root == "/" {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// snapshotDiff diffs the current state of req.Path against snapshot
// req.Name of req.Root. Diffing a strict descendant of the snapshot root is
// allowed only when the NameNode's own configuration permits it, no matter
// what the client believes (Table 3: dfs.namenode.snapshotdiff.allow.snap-
// root-descendant).
func (nn *NameNode) snapshotDiff(req *SnapshotReq) (SnapshotDiffResp, error) {
	if req.Path != req.Root {
		if !strings.HasPrefix(req.Path, req.Root+"/") && req.Root != "/" {
			return SnapshotDiffResp{}, fmt.Errorf("minihdfs: %s is not under snapshot root %s", req.Path, req.Root)
		}
		if !nn.conf.GetBool(ParamSnapRootDescendant) {
			return SnapshotDiffResp{}, fmt.Errorf(
				"minihdfs: NameNode declines snapshot diff on descendant %s: %s is disabled",
				req.Path, ParamSnapRootDescendant)
		}
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	snaps := nn.snapshots[req.Root]
	base, ok := snaps[req.Name]
	if !ok {
		return SnapshotDiffResp{}, fmt.Errorf("minihdfs: no snapshot %q of %s", req.Name, req.Root)
	}
	baseSet := make(map[string]bool, len(base))
	for _, p := range base {
		if p == req.Path || strings.HasPrefix(p, req.Path+"/") || req.Path == "/" {
			baseSet[p] = true
		}
	}
	var diff []string
	for _, p := range nn.filesUnderLocked(req.Path) {
		if !baseSet[p] {
			diff = append(diff, "+"+p)
		} else {
			delete(baseSet, p)
		}
	}
	for p := range baseSet {
		diff = append(diff, "-"+p)
	}
	sort.Strings(diff)
	return SnapshotDiffResp{Changed: diff}, nil
}

// approveMove validates a balancing move against the NameNode's block
// placement policy: after the move, the replicas must span at least
// min(#replicas, upgradeDomainFactor) distinct upgrade domains — evaluated
// with the NameNode's factor, which is how a Balancer with a different
// factor gets every proposal declined (Table 3).
func (nn *NameNode) approveMove(req *ApproveMoveReq) error {
	factor := nn.conf.GetInt(ParamUpgradeDomainFactor)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	b, ok := nn.blocks[req.BlockID]
	if !ok {
		return fmt.Errorf("minihdfs: approveMove on unknown block %d", req.BlockID)
	}
	domains := make(map[string]bool)
	replicas := 0
	for dn := range b.locations {
		if dn == req.FromDN {
			dn = req.ToDN
		}
		state, ok := nn.dns[dn]
		if !ok {
			return fmt.Errorf("minihdfs: approveMove to unknown datanode %s", dn)
		}
		domains[state.domain] = true
		replicas++
	}
	need := int64(replicas)
	if factor < need {
		need = factor
	}
	if int64(len(domains)) < need {
		return fmt.Errorf(
			"minihdfs: move of block %d from %s to %s violates the upgrade-domain placement policy: %d domains < required %d",
			req.BlockID, req.FromDN, req.ToDN, len(domains), need)
	}
	return nil
}

func (nn *NameNode) blockLocations(req *BlockLocationsReq) (BlockLocationsResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return BlockLocationsResp{}, fmt.Errorf("minihdfs: getBlockLocations on missing file %s", req.Path)
	}
	var resp BlockLocationsResp
	for _, id := range f.blockIDs {
		b := nn.blocks[id]
		if b == nil {
			continue
		}
		loc := BlockLocation{BlockID: id, Len: b.len}
		var dns []string
		for dn := range b.locations {
			dns = append(dns, dn)
		}
		sort.Strings(dns)
		for _, dn := range dns {
			if state, ok := nn.dns[dn]; ok && !state.dead {
				loc.DataAddrs = append(loc.DataAddrs, state.dataAddr)
			}
		}
		resp.Blocks = append(resp.Blocks, loc)
	}
	return resp, nil
}

// reopen marks a completed file writable again so a client can append new
// blocks to it.
func (nn *NameNode) reopen(path string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[path]
	if !ok {
		return fmt.Errorf("minihdfs: append on missing file %s", path)
	}
	if !f.complete {
		return fmt.Errorf("minihdfs: append on %s: file already open for write", path)
	}
	f.complete = false
	return nil
}

// setStoragePolicy tags a file for the Mover.
func (nn *NameNode) setStoragePolicy(req *PolicyReq) error {
	if req.Policy != PolicyHot && req.Policy != PolicyCold {
		return fmt.Errorf("minihdfs: unknown storage policy %q", req.Policy)
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[req.Path]
	if !ok {
		return fmt.Errorf("minihdfs: setStoragePolicy on missing file %s", req.Path)
	}
	f.policy = req.Policy
	return nil
}

// policyBlocks lists the blocks (with replica locations) of every file
// tagged with the given policy.
func (nn *NameNode) policyBlocks(policy string) BlocksOnDNResp {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var resp BlocksOnDNResp
	for _, f := range nn.files {
		if f.policy != policy {
			continue
		}
		for _, id := range f.blockIDs {
			b := nn.blocks[id]
			if b == nil {
				continue
			}
			var locs []string
			for dn := range b.locations {
				locs = append(locs, dn)
			}
			sort.Strings(locs)
			resp.Blocks = append(resp.Blocks, BlockOnDN{BlockID: id, Len: b.len, Locations: locs})
		}
	}
	sort.Slice(resp.Blocks, func(i, j int) bool { return resp.Blocks[i].BlockID < resp.Blocks[j].BlockID })
	return resp
}

// getImage serves the namespace image.
func (nn *NameNode) getImage(*rpcsim.Empty) (ImageResp, error) {
	img, compressed, err := nn.Image()
	return ImageResp{Image: img, Compressed: compressed}, err
}

// Image serializes the namespace deterministically, compressed when the
// NameNode's dfs.image.compress says so. Two NameNodes holding the same
// namespace produce images with identical decompressed contents but —
// when their compression settings differ — different lengths, the §7.1
// overly-strict-assertion false positive.
func (nn *NameNode) Image() ([]byte, bool, error) {
	nn.mu.Lock()
	type entry struct {
		Path   string
		Blocks []int64
	}
	var entries []entry
	for path, f := range nn.files {
		entries = append(entries, entry{Path: path, Blocks: f.blockIDs})
	}
	nn.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	raw, err := json.Marshal(entries)
	if err != nil {
		return nil, false, err
	}
	if !nn.conf.GetBool(ParamImageCompress) {
		return raw, false, nil
	}
	// The codec is consulted only on this branch: a default campaign
	// (compress off) never reads it, which is exactly the conditional
	// read the coverage fallback must not lose.
	enc, err := encodeImage(nn.conf.Get(ParamImageCodec), raw)
	if err != nil {
		return nil, false, err
	}
	return enc, true, nil
}

// encodeImage compresses raw with the named codec ("gzip", or deflate
// for anything else — the legacy default).
func encodeImage(codec string, raw []byte) ([]byte, error) {
	if codec == "gzip" {
		return rpcsim.Gzip(raw)
	}
	return rpcsim.Deflate(rpcsim.BestCompression, raw)
}

// decodeImageCodec inflates img with the reader's own configured codec.
// The image does not say which codec produced it — that is the
// homogeneity assumption under test: a gzip stream handed to the
// deflate reader hits the reserved block type in the gzip header and
// fails, as does a bare deflate stream handed to the gzip reader.
func decodeImageCodec(codec string, img []byte) ([]byte, error) {
	if codec == "gzip" {
		return rpcsim.Gunzip(img)
	}
	return rpcsim.Inflate(img)
}

// DecodeImage inflates an image produced by Image, assuming the legacy
// deflate codec (callers that model configuration-aware readers use
// decodeImageCodec with their own conf instead).
func DecodeImage(img []byte, compressed bool) ([]byte, error) {
	if !compressed {
		return img, nil
	}
	return rpcsim.Inflate(img)
}

// splitPath splits "/a/b/c" into ("/a/b", "c").
func splitPath(path string) (parent, name string) {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/", strings.TrimPrefix(path, "/")
	}
	return path[:i], path[i+1:]
}
