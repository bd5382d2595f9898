package minihdfs

import (
	"fmt"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/netsim"
	"zebraconf/internal/rpcsim"
	"zebraconf/internal/simtime"
)

// moveServiceTicks models the disk and network latency of one balancing
// block move, excluding throttling. It is deliberately much smaller than
// moverBackoffTicks: the paper observes DataNodes "usually finish a block
// transfer within 1100 ms", which is why the congestion backoff dominates
// heterogeneous max.concurrent.moves runs.
const moveServiceTicks = 100

// readServiceDivisor scales block length to streaming service time:
// a read or write of n bytes takes n/readServiceDivisor ticks, long enough
// that data-transfer keepalives matter for short socket timeouts.
const readServiceDivisor = 20

// progressBytes is the size of a balancing progress report message; it is
// charged to the same bandwidth budget as block data unless the critical
// reserve (the paper's proposed fix) is enabled.
const progressBytes = 16

// DataNodeOptions configures cluster-assigned (not configuration-file)
// properties of a DataNode.
type DataNodeOptions struct {
	// Domain is the upgrade domain the administrator assigned this node.
	Domain string
	// Tier is the storage tier (TierDisk default, or TierArchive).
	Tier string
	// Capacity is the raw storage capacity in bytes.
	Capacity int64
	// ReserveCriticalBandwidth enables the paper's proposed fix: a
	// fraction of the balancing bandwidth reserved for progress reports.
	ReserveCriticalBandwidth float64
	// SharedIPC, when set, is the process-shared IPC component the node
	// consults on startup — the §7.1 false-positive pathology.
	SharedIPC *common.SharedIPC
}

type storedBlock struct {
	data []byte
	sums []uint32
}

// DataNode stores block replicas and serves the data-transfer protocol.
type DataNode struct {
	env  *harness.Env
	conf *confkit.Conf
	id   string
	opts DataNodeOptions

	dataSrv  *rpcsim.Server // client-facing endpoint
	peerSrv  *rpcsim.Server // DN-to-DN endpoint
	nnConn   *rpcsim.Conn
	throttle *netsim.Throttler
	moverSem chan struct{} // counting semaphore, only ever tried, never waited on

	mu     sync.Mutex
	blocks map[int64]*storedBlock
	used   int64

	scanPeriod int64 // read at init; exposed only via a private accessor

	stop  *simtime.Signal
	loops *simtime.Group
}

// StartDataNode boots a DataNode, registers it with the NameNode at nnAddr,
// and starts its heartbeat loop. The constructor is the annotated init
// function: StartInit/StopInit bound the agent's init window and
// RefToClone detaches the node from the unit test's shared configuration.
func StartDataNode(env *harness.Env, conf *confkit.Conf, id, nnAddr string, opts DataNodeOptions) (*DataNode, error) {
	env.RT.StartInit(TypeDataNode)
	defer env.RT.StopInit()

	if opts.Capacity <= 0 {
		opts.Capacity = 100000
	}
	dn := &DataNode{
		env:    env,
		conf:   conf.RefToClone(),
		id:     id,
		opts:   opts,
		blocks: make(map[int64]*storedBlock),
		stop:   env.Scale.NewSignal(),
		loops:  env.NewGroup(),
	}
	// Local parameters read at init.
	_ = dn.conf.Get(ParamDataDir)
	_ = dn.conf.GetInt(ParamDNHandlerCount)
	_ = dn.conf.GetInt(ParamMaxTransferThreads)
	_ = dn.conf.GetInt(ParamFailedVolumes)
	_ = dn.conf.GetBool(ParamSyncBehindWrites)
	_ = dn.conf.GetTicks(ParamDirScanInterval)
	dn.scanPeriod = dn.conf.GetTicks(ParamScanPeriod)

	if opts.SharedIPC != nil {
		// The shared component is created (lazily) by whichever node gets
		// here first and cross-checks IPC parameters against every later
		// caller's configuration — fine when all nodes agree, a false
		// alarm under per-node values.
		if err := opts.SharedIPC.Use(dn.conf); err != nil {
			return nil, fmt.Errorf("minihdfs: datanode %s: %w", id, err)
		}
	}

	dn.throttle = netsim.NewThrottler(env.Scale, dn.conf.GetInt(ParamBalanceBandwidth))
	if opts.ReserveCriticalBandwidth > 0 {
		dn.throttle.ReserveCriticalFraction(opts.ReserveCriticalBandwidth)
	}
	moves := dn.conf.GetInt(ParamMaxConcurrentMoves)
	if moves < 1 {
		moves = 1
	}
	dn.moverSem = make(chan struct{}, moves)

	// One handler serves both the data and the peer endpoint.
	rpc := dataNodeRPC.Bind("minihdfs: datanode "+id, dn)

	dataSec := dn.transferSecurity()
	dataSrv, err := env.Fabric.Serve(dn.DataAddr(), dataSec, env.Scale, rpc)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: start datanode %s: %w", id, err)
	}
	if t := dn.conf.GetTicks(ParamClientSocketTimeout); t > 0 {
		ping := t / 3
		if ping < 1 {
			ping = 1
		}
		dataSrv.SetPingTicks(ping)
	}
	dn.dataSrv = dataSrv

	peerSec := dataSec
	peerSec.Version = int(dn.conf.GetInt(ParamPeerProtocolVersion))
	peerSrv, err := env.Fabric.Serve(dn.PeerAddr(), peerSec, env.Scale, rpc)
	if err != nil {
		dataSrv.Close()
		return nil, fmt.Errorf("minihdfs: start datanode %s peer endpoint: %w", id, err)
	}
	dn.peerSrv = peerSrv

	// Register with the NameNode; the handshake enforces RPC protection and
	// block-access-token agreement (Table 3: "DataNode fails to register
	// block pools").
	ipcSec := common.SecurityFromConf(dn.conf)
	ipcSec.RequireToken = dn.conf.GetBool(ParamBlockAccessToken)
	conn, err := common.DialIPC(env.Fabric, nnAddr, dn.conf, env.Scale, ipcSec)
	if err != nil {
		dn.closeServers()
		return nil, fmt.Errorf("minihdfs: datanode %s cannot reach namenode: %w", id, err)
	}
	dn.nnConn = conn
	if err := MethodRegister.Call(conn, RegisterReq{
		DNID: id, DataAddr: dn.DataAddr(), PeerAddr: dn.PeerAddr(),
		Domain: opts.Domain, Tier: opts.Tier,
	}); err != nil {
		dn.closeServers()
		return nil, fmt.Errorf("minihdfs: datanode %s failed to register block pools: %w", id, err)
	}

	dn.loops.Go(dn.heartbeatLoop)
	return dn, nil
}

// transferSecurity derives the data-transfer channel profile from the
// DataNode's own configuration.
func (dn *DataNode) transferSecurity() rpcsim.Security {
	return rpcsim.Security{
		Protection: dn.conf.Get(ParamDataTransferProtect),
		Encrypt:    dn.conf.GetBool(ParamEncryptDataTransfer),
		Key:        "data-transfer-key",
	}
}

// DataAddr is the client-facing transfer endpoint address.
func (dn *DataNode) DataAddr() string { return dn.id + "-data" }

// PeerAddr is the DN-to-DN transfer endpoint address.
func (dn *DataNode) PeerAddr() string { return dn.id + "-peer" }

// ID returns the DataNode's identifier.
func (dn *DataNode) ID() string { return dn.id }

// ScanPeriod exposes node-private state; it exists only for the §7.1
// false-positive trap test, which compares it against the client's
// configuration object.
func (dn *DataNode) ScanPeriod() int64 { return dn.scanPeriod }

// BlockCount reports the number of stored replicas.
func (dn *DataNode) BlockCount() int {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	return len(dn.blocks)
}

// CorruptBlock flips a byte of a stored replica (test fault injection).
func (dn *DataNode) CorruptBlock(id int64) bool {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	b, ok := dn.blocks[id]
	if !ok || len(b.data) == 0 {
		return false
	}
	b.data[0] ^= 0xFF
	return true
}

func (dn *DataNode) closeServers() {
	if dn.dataSrv != nil {
		dn.dataSrv.Close()
	}
	if dn.peerSrv != nil {
		dn.peerSrv.Close()
	}
}

// Stop shuts the DataNode down; the NameNode will eventually declare it
// dead.
func (dn *DataNode) Stop() {
	dn.stop.Fire()
	dn.closeServers()
	dn.loops.Wait()
}

// heartbeatLoop reports to the NameNode every heartbeat-interval ticks and
// executes the deletion commands piggybacked on the response.
func (dn *DataNode) heartbeatLoop() {
	for {
		interval := dn.conf.GetTicks(ParamHeartbeatInterval)
		if interval < 1 {
			interval = 1
		}
		if dn.env.Scale.Wait(interval, dn.stop) {
			return
		}
		reserved := dn.conf.GetInt(ParamDUReserved)
		dn.mu.Lock()
		req := HeartbeatReq{
			DNID:      dn.id,
			Capacity:  dn.opts.Capacity,
			Remaining: dn.opts.Capacity - dn.used - reserved,
			Blocks:    len(dn.blocks),
		}
		dn.mu.Unlock()
		resp, err := MethodHeartbeat.Call(dn.nnConn, req)
		if err != nil {
			continue // the NameNode may be gone; keep trying until stopped
		}
		for _, b := range resp.DeleteBlocks {
			dn.deleteBlock(b)
		}
	}
}

// deleteBlock removes a replica and reports the deletion — immediately, or
// after the node's incremental block report interval (Table 3:
// dfs.blockreport.incremental.intervalMsec).
func (dn *DataNode) deleteBlock(id int64) {
	dn.mu.Lock()
	b, ok := dn.blocks[id]
	if ok {
		dn.used -= int64(len(b.data))
		delete(dn.blocks, id)
	}
	dn.mu.Unlock()
	if !ok {
		return
	}
	report := func() {
		_ = MethodBlockDeleted.Call(dn.nnConn, BlockReportReq{DNID: dn.id, BlockID: id})
	}
	delay := dn.conf.GetTicks(ParamIncrementalBRIntvl)
	if delay <= 0 {
		report()
		return
	}
	// Not in dn.loops: a deferred report may be scheduled while Stop is
	// waiting, and the goroutine exits by itself after at most delay ticks.
	dn.env.RT.Go(func() {
		if !dn.env.Scale.Wait(delay, dn.stop) {
			report()
		}
	})
}

// writeBlock stores a replica after verifying the sender's checksums with
// the DataNode's OWN checksum configuration — the homogeneity assumption
// that makes dfs.checksum.type and dfs.bytes-per-checksum heterogeneous-
// unsafe. It then forwards down the remaining pipeline and notifies the
// NameNode before acknowledging, so completed writes are immediately
// readable.
func (dn *DataNode) writeBlock(req *WriteBlockReq) error {
	dn.env.Scale.Sleep(int64(len(req.Data)) / readServiceDivisor)
	typ := dn.conf.Get(ParamChecksumType)
	bps := dn.conf.GetInt(ParamBytesPerChecksum)
	if err := common.VerifyChecksums(req.Data, req.Sums, typ, bps); err != nil {
		return fmt.Errorf("minihdfs: datanode %s: %w", dn.id, err)
	}
	dn.storeBlock(req.BlockID, req.Data, req.Sums)
	if len(req.PeerAddrs) > 0 {
		next, rest := req.PeerAddrs[0], req.PeerAddrs[1:]
		if err := dn.forwardBlock(next, &WriteBlockReq{
			BlockID: req.BlockID, Data: req.Data, Sums: req.Sums, PeerAddrs: rest,
		}); err != nil {
			return fmt.Errorf("minihdfs: datanode %s: pipeline forward to %s: %w", dn.id, next, err)
		}
	}
	return MethodBlockReceived.Call(dn.nnConn, BlockReportReq{DNID: dn.id, BlockID: req.BlockID})
}

// forwardBlock sends a replica to the next pipeline DataNode over the peer
// protocol. Checksums are recomputed with this node's configuration — the
// downstream node will verify with its own, so checksum skew between
// DataNodes of the same type also fails (caught only by round-robin value
// assignment).
func (dn *DataNode) forwardBlock(peerAddr string, req *WriteBlockReq) error {
	sums, err := common.ComputeChecksums(req.Data,
		dn.conf.Get(ParamChecksumType), dn.conf.GetInt(ParamBytesPerChecksum))
	if err != nil {
		return err
	}
	req.Sums = sums
	sec := dn.transferSecurity()
	sec.Version = int(dn.conf.GetInt(ParamPeerProtocolVersion))
	conn, err := dn.env.Fabric.Dial(peerAddr, sec, dn.env.Scale)
	if err != nil {
		return err
	}
	return MethodWriteBlock.Call(conn, *req)
}

func (dn *DataNode) storeBlock(id int64, data []byte, sums []uint32) {
	cp := make([]byte, len(data))
	copy(cp, data)
	sc := make([]uint32, len(sums))
	copy(sc, sums)
	dn.mu.Lock()
	if old, ok := dn.blocks[id]; ok {
		dn.used -= int64(len(old.data))
	}
	dn.blocks[id] = &storedBlock{data: cp, sums: sc}
	dn.used += int64(len(cp))
	dn.mu.Unlock()
}

// readBlock streams a replica back with its stored checksums; the reader
// verifies with its own configuration.
func (dn *DataNode) readBlock(req *ReadBlockReq) (ReadBlockResp, error) {
	dn.mu.Lock()
	b, ok := dn.blocks[req.BlockID]
	dn.mu.Unlock()
	if !ok {
		return ReadBlockResp{}, fmt.Errorf("minihdfs: datanode %s has no replica of block %d", dn.id, req.BlockID)
	}
	dn.env.Scale.Sleep(int64(len(b.data)) / readServiceDivisor)
	return ReadBlockResp{Data: b.data, Sums: b.sums}, nil
}

// moveReplica serves a Balancer move request on the SOURCE DataNode. When
// all mover slots are busy it declines with ErrMoverBusy, triggering the
// Balancer's congestion backoff (the max.concurrent.moves case study).
// Outbound bytes are charged to the balancing bandwidth budget.
func (dn *DataNode) moveReplica(req *MoveReplicaReq) error {
	select {
	case dn.moverSem <- struct{}{}:
	default:
		return fmt.Errorf("minihdfs: datanode %s: %s", dn.id, ErrMoverBusy)
	}
	defer func() { <-dn.moverSem }()

	dn.mu.Lock()
	b, ok := dn.blocks[req.BlockID]
	dn.mu.Unlock()
	if !ok {
		return fmt.Errorf("minihdfs: datanode %s has no replica of block %d to move", dn.id, req.BlockID)
	}

	dn.throttle.Acquire(int64(len(b.data))) // egress budget
	dn.env.Scale.Sleep(moveServiceTicks)

	sec := dn.transferSecurity()
	sec.Version = int(dn.conf.GetInt(ParamPeerProtocolVersion))
	conn, err := dn.env.Fabric.Dial(req.TargetPeer, sec, dn.env.Scale)
	if err != nil {
		return fmt.Errorf("minihdfs: datanode %s: dial move target %s: %w", dn.id, req.TargetPeer, err)
	}
	if err := MethodReceiveReplica.Call(conn, ReceiveReplicaReq{
		BlockID: req.BlockID, Data: b.data, Sums: b.sums, BalancerAddr: req.BalancerAddr,
	}); err != nil {
		return fmt.Errorf("minihdfs: datanode %s: move block %d to %s: %w", dn.id, req.BlockID, req.TargetPeer, err)
	}
	dn.deleteBlock(req.BlockID)
	return nil
}

// receiveReplica serves the TARGET side of a balancing move. Inbound bytes
// are charged to this node's bandwidth budget, and the subsequent progress
// report is charged to the same budget — so a flood from a higher-limit
// peer starves the progress report and the Balancer times out (the
// bandwidthPerSec case study). With the critical reserve enabled, progress
// reports bypass the flooded queue (the paper's proposed fix).
func (dn *DataNode) receiveReplica(req *ReceiveReplicaReq) error {
	dn.throttle.Acquire(int64(len(req.Data))) // ingress budget
	dn.storeBlock(req.BlockID, req.Data, req.Sums)
	if err := MethodBlockReceived.Call(dn.nnConn, BlockReportReq{DNID: dn.id, BlockID: req.BlockID}); err != nil {
		return err
	}
	if req.BalancerAddr == "" {
		return nil
	}
	if dn.opts.ReserveCriticalBandwidth > 0 {
		dn.throttle.AcquireCritical(progressBytes)
	} else {
		dn.throttle.Acquire(progressBytes)
	}
	conn, err := dn.env.Fabric.Dial(req.BalancerAddr, rpcsim.Security{}, dn.env.Scale)
	if err != nil {
		return nil // the balancer may already be gone; the move still succeeded
	}
	_ = MethodProgress.Call(conn, ProgressReq{DNID: dn.id, BlockID: req.BlockID})
	return nil
}
