package minihdfs

import "zebraconf/internal/rpcsim"

// The RPCs minihdfs nodes serve, each declared once with the messages it
// exchanges. Everything crossing the wire is encoded by rpcsim inside its
// envelope, so heterogeneous transport settings corrupt these bytes exactly
// where a real deployment would corrupt its protobufs.

// NameNode IPC methods.
var (
	MethodRegister          = rpcsim.Command[RegisterReq]{Name: "register"}
	MethodHeartbeat         = rpcsim.Method[HeartbeatReq, HeartbeatResp]{Name: "heartbeat"}
	MethodBlockReceived     = rpcsim.Command[BlockReportReq]{Name: "blockReceived"}
	MethodBlockDeleted      = rpcsim.Command[BlockReportReq]{Name: "blockDeleted"}
	MethodCreate            = rpcsim.Command[CreateReq]{Name: "create"}
	MethodAddBlock          = rpcsim.Method[AddBlockReq, AddBlockResp]{Name: "addBlock"}
	MethodComplete          = rpcsim.Command[PathReq]{Name: "complete"}
	MethodDelete            = rpcsim.Command[PathReq]{Name: "delete"}
	MethodMkdir             = rpcsim.Command[PathReq]{Name: "mkdir"}
	MethodList              = rpcsim.Method[PathReq, ListResp]{Name: "list"}
	MethodStats             = rpcsim.Method[rpcsim.Empty, StatsResp]{Name: "stats"}
	MethodDatanodeReport    = rpcsim.Method[rpcsim.Empty, DatanodeReportResp]{Name: "datanodeReport"}
	MethodBlocksOnDN        = rpcsim.Method[RegisterReq, BlocksOnDNResp]{Name: "blocksOnDN"} // only DNID is read
	MethodAdditionalDN      = rpcsim.Method[AdditionalDNReq, AdditionalDNResp]{Name: "additionalDatanode"}
	MethodReportBadBlocks   = rpcsim.Command[BadBlocksReq]{Name: "reportBadBlocks"}
	MethodListCorrupt       = rpcsim.Method[rpcsim.Empty, ListCorruptResp]{Name: "listCorruptFileBlocks"}
	MethodCreateSnapshot    = rpcsim.Command[SnapshotReq]{Name: "createSnapshot"}
	MethodSnapshotDiff      = rpcsim.Method[SnapshotReq, SnapshotDiffResp]{Name: "snapshotDiff"}
	MethodApproveMove       = rpcsim.Command[ApproveMoveReq]{Name: "approveMove"}
	MethodSaveNamespace     = rpcsim.Method[rpcsim.Empty, ImageResp]{Name: "saveNamespace"}
	MethodGetImage          = rpcsim.Method[rpcsim.Empty, ImageResp]{Name: "getImage"}
	MethodGetBlockLocations = rpcsim.Method[BlockLocationsReq, BlockLocationsResp]{Name: "getBlockLocations"}
	MethodAppend            = rpcsim.Command[PathReq]{Name: "append"}
	MethodSetStoragePolicy  = rpcsim.Command[PolicyReq]{Name: "setStoragePolicy"}
	MethodPolicyBlocks      = rpcsim.Method[SnapshotReq, BlocksOnDNResp]{Name: "policyBlocks"} // Name carries the policy
)

// MethodFsck is the one method of the NameNode's web endpoint.
var MethodFsck = rpcsim.Method[rpcsim.Empty, StatsResp]{Name: "fsck"}

// The NameNode's IPC and web services.
var nameNodeRPC, nameNodeWebRPC rpcsim.Service[NameNode]

func init() {
	svc := &nameNodeRPC
	rpcsim.HandleCommand(svc, MethodRegister, (*NameNode).register)
	rpcsim.Handle(svc, MethodHeartbeat, (*NameNode).heartbeat)
	rpcsim.HandleCommand(svc, MethodBlockReceived, func(nn *NameNode, req *BlockReportReq) error { return nn.blockReport(req, true) })
	rpcsim.HandleCommand(svc, MethodBlockDeleted, func(nn *NameNode, req *BlockReportReq) error { return nn.blockReport(req, false) })
	rpcsim.HandleCommand(svc, MethodCreate, (*NameNode).create)
	rpcsim.Handle(svc, MethodAddBlock, (*NameNode).addBlock)
	rpcsim.HandleCommand(svc, MethodComplete, (*NameNode).complete)
	rpcsim.HandleCommand(svc, MethodDelete, func(nn *NameNode, req *PathReq) error { return nn.delete(req.Path) })
	rpcsim.HandleCommand(svc, MethodMkdir, func(nn *NameNode, req *PathReq) error { return nn.mkdir(req.Path) })
	rpcsim.Handle(svc, MethodList, (*NameNode).list)
	rpcsim.Handle(svc, MethodStats, (*NameNode).stats)
	rpcsim.Handle(svc, MethodDatanodeReport, (*NameNode).datanodeReport)
	rpcsim.Handle(svc, MethodBlocksOnDN, func(nn *NameNode, req *RegisterReq) (BlocksOnDNResp, error) { return nn.blocksOnDN(req.DNID), nil })
	rpcsim.Handle(svc, MethodAdditionalDN, (*NameNode).additionalDN)
	rpcsim.HandleCommand(svc, MethodReportBadBlocks, (*NameNode).reportBadBlocks)
	rpcsim.Handle(svc, MethodListCorrupt, (*NameNode).listCorrupt)
	rpcsim.HandleCommand(svc, MethodCreateSnapshot, (*NameNode).createSnapshot)
	rpcsim.Handle(svc, MethodSnapshotDiff, (*NameNode).snapshotDiff)
	rpcsim.HandleCommand(svc, MethodApproveMove, (*NameNode).approveMove)
	rpcsim.Handle(svc, MethodSaveNamespace, func(nn *NameNode, req *rpcsim.Empty) (ImageResp, error) {
		nn.env.Scale.Sleep(saveNamespaceTicks)
		return nn.getImage(req)
	})
	rpcsim.Handle(svc, MethodGetImage, (*NameNode).getImage)
	rpcsim.HandleCommand(svc, MethodAppend, func(nn *NameNode, req *PathReq) error { return nn.reopen(req.Path) })
	rpcsim.HandleCommand(svc, MethodSetStoragePolicy, (*NameNode).setStoragePolicy)
	rpcsim.Handle(svc, MethodPolicyBlocks, func(nn *NameNode, req *SnapshotReq) (BlocksOnDNResp, error) { return nn.policyBlocks(req.Name), nil })
	rpcsim.Handle(svc, MethodGetBlockLocations, (*NameNode).blockLocations)

	rpcsim.Handle(&nameNodeWebRPC, MethodFsck, (*NameNode).stats)
}

// DataNode data/peer endpoint methods.
var (
	MethodWriteBlock     = rpcsim.Command[WriteBlockReq]{Name: "writeBlock"}
	MethodReadBlock      = rpcsim.Method[ReadBlockReq, ReadBlockResp]{Name: "readBlock"}
	MethodMoveReplica    = rpcsim.Command[MoveReplicaReq]{Name: "moveReplica"}
	MethodReceiveReplica = rpcsim.Command[ReceiveReplicaReq]{Name: "receiveReplica"}
)

var dataNodeRPC rpcsim.Service[DataNode]

func init() {
	rpcsim.HandleCommand(&dataNodeRPC, MethodWriteBlock, (*DataNode).writeBlock)
	rpcsim.Handle(&dataNodeRPC, MethodReadBlock, (*DataNode).readBlock)
	rpcsim.HandleCommand(&dataNodeRPC, MethodMoveReplica, (*DataNode).moveReplica)
	rpcsim.HandleCommand(&dataNodeRPC, MethodReceiveReplica, (*DataNode).receiveReplica)
}

// Balancer endpoint methods.
var MethodProgress = rpcsim.Command[ProgressReq]{Name: "progress"}

var balancerRPC rpcsim.Service[Balancer]

func init() {
	rpcsim.HandleCommand(&balancerRPC, MethodProgress, func(b *Balancer, _ *ProgressReq) error {
		b.touchProgress()
		return nil
	})
}

// JournalNode methods.
var (
	MethodJournal           = rpcsim.Command[JournalReq]{Name: "journal"}
	MethodFinalizeSegment   = rpcsim.Command[SegmentReq]{Name: "finalizeSegment"}
	MethodGetJournaledEdits = rpcsim.Method[GetEditsReq, GetEditsResp]{Name: "getJournaledEdits"}
)

var journalNodeRPC rpcsim.Service[JournalNode]

func init() {
	rpcsim.HandleCommand(&journalNodeRPC, MethodJournal, (*JournalNode).journal)
	rpcsim.HandleCommand(&journalNodeRPC, MethodFinalizeSegment, (*JournalNode).finalizeSegment)
	rpcsim.Handle(&journalNodeRPC, MethodGetJournaledEdits, (*JournalNode).getEdits)
}

// RegisterReq announces a DataNode to the NameNode.
type RegisterReq struct {
	DNID     string
	DataAddr string // client-facing transfer endpoint
	PeerAddr string // DN-to-DN transfer endpoint
	Domain   string // upgrade domain
	Tier     string // storage tier (DISK or ARCHIVE)
}

// HeartbeatReq reports a DataNode's state; the response carries pending
// commands, mirroring HDFS's heartbeat piggybacking.
type HeartbeatReq struct {
	DNID      string
	Capacity  int64
	Remaining int64
	Blocks    int
}

// HeartbeatResp returns blocks the DataNode must delete.
type HeartbeatResp struct {
	DeleteBlocks []int64
}

// BlockReportReq is an incremental block received/deleted notification.
type BlockReportReq struct {
	DNID    string
	BlockID int64
}

// CreateReq creates a file; Replication and BlockSize are recorded per file
// at create time (which is why dfs.replication and dfs.blocksize stay
// heterogeneous-safe).
type CreateReq struct {
	Path        string
	Replication int
	BlockSize   int64
}

// AddBlockReq allocates the next block of a file being written.
type AddBlockReq struct {
	Path string
	Len  int64
}

// AddBlockResp returns the allocated block and its pipeline.
type AddBlockResp struct {
	BlockID   int64
	DataAddrs []string // client-facing endpoints, pipeline order
	PeerAddrs []string // DN-to-DN endpoints, pipeline order
	DNIDs     []string
}

// PathReq addresses a path (complete, delete, mkdir, list).
type PathReq struct {
	Path string
}

// ListResp lists directory children.
type ListResp struct {
	Names []string
}

// StatsResp is the public cluster statistics API (fsck/dfsadmin analog).
type StatsResp struct {
	Files         int
	Blocks        int
	Replicas      int
	CapacityTotal int64
	Remaining     int64
	LiveDNs       int
	DeadDNs       int
	StaleDNs      int
}

// DNInfo describes one DataNode in a datanodeReport.
type DNInfo struct {
	DNID      string
	PeerAddr  string
	Domain    string
	Tier      string
	Blocks    int
	Capacity  int64
	Remaining int64
	Dead      bool
	Stale     bool
}

// DatanodeReportResp lists all registered DataNodes.
type DatanodeReportResp struct {
	Nodes []DNInfo
}

// BlockOnDN describes one replica for balancing decisions.
type BlockOnDN struct {
	BlockID   int64
	Len       int64
	Locations []string // DN IDs currently holding replicas
}

// BlocksOnDNResp lists the blocks stored on one DataNode.
type BlocksOnDNResp struct {
	Blocks []BlockOnDN
}

// AdditionalDNReq asks for a replacement pipeline DataNode.
type AdditionalDNReq struct {
	Path    string
	Exclude []string
}

// AdditionalDNResp returns the replacement.
type AdditionalDNResp struct {
	DNID     string
	DataAddr string
	PeerAddr string
}

// BadBlocksReq reports corrupt blocks (public client API).
type BadBlocksReq struct {
	BlockIDs []int64
}

// ListCorruptResp returns corrupt blocks, truncated at the NameNode's
// configured maximum.
type ListCorruptResp struct {
	BlockIDs  []int64
	Truncated bool
}

// PolicyReq tags a file with a storage policy (HOT or COLD).
type PolicyReq struct {
	Path   string
	Policy string
}

// SnapshotReq creates a snapshot of Root or diffs Path within Root.
type SnapshotReq struct {
	Root string
	Path string
	Name string
}

// SnapshotDiffResp lists changed paths.
type SnapshotDiffResp struct {
	Changed []string
}

// ApproveMoveReq asks the NameNode to validate a balancing move against its
// block placement policy.
type ApproveMoveReq struct {
	BlockID int64
	FromDN  string
	ToDN    string
}

// BlockLocationsReq resolves a file's blocks.
type BlockLocationsReq struct {
	Path string
}

// BlockLocation describes one block of a file.
type BlockLocation struct {
	BlockID   int64
	Len       int64
	DataAddrs []string
}

// BlockLocationsResp lists a file's blocks in order.
type BlockLocationsResp struct {
	Blocks []BlockLocation
}

// ImageResp carries a serialized namespace image (possibly compressed,
// per the serving NameNode's dfs.image.compress).
type ImageResp struct {
	Image      []byte
	Compressed bool
}

// WriteBlockReq writes a block replica; Sums were computed by the sender
// with the sender's checksum configuration, and the receiver verifies with
// its own (the homogeneity assumption ZebraConf probes).
type WriteBlockReq struct {
	BlockID   int64
	Data      []byte
	Sums      []uint32
	PeerAddrs []string // remaining pipeline (DN-to-DN endpoints)
}

// ReadBlockReq reads a block replica.
type ReadBlockReq struct {
	BlockID int64
}

// ReadBlockResp returns the replica and its stored checksums.
type ReadBlockResp struct {
	Data []byte
	Sums []uint32
}

// MoveReplicaReq asks a source DataNode to move a replica for balancing.
type MoveReplicaReq struct {
	BlockID      int64
	TargetPeer   string
	TargetDNID   string
	BalancerAddr string
}

// ReceiveReplicaReq delivers a balanced replica to the target DataNode.
type ReceiveReplicaReq struct {
	BlockID      int64
	Data         []byte
	Sums         []uint32
	BalancerAddr string
}

// ProgressReq is a balancing progress report.
type ProgressReq struct {
	DNID    string
	BlockID int64
}

// JournalReq appends edits to a JournalNode segment.
type JournalReq struct {
	SegmentID int64
	Edits     []string
}

// SegmentReq finalizes a segment.
type SegmentReq struct {
	SegmentID int64
}

// GetEditsReq tails edits from a JournalNode. InProgressOK reflects the
// requester's dfs.ha.tail-edits.in-progress setting.
type GetEditsReq struct {
	SinceTxn     int64
	InProgressOK bool
}

// GetEditsResp returns the tailed edits.
type GetEditsResp struct {
	Edits []string
}

// ErrMoverBusy is the decline message a DataNode returns when all its
// balancing mover threads are occupied; the Balancer's congestion control
// reacts with a fixed backoff (paper §7.1).
const ErrMoverBusy = "mover threads busy"
