package minihdfs

import (
	"fmt"
	"strings"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// Storage tiers and policies for the Mover (paper Table 2 lists Mover as
// an HDFS node type; it migrates replicas to match per-file storage
// policies, reusing the balancer's transfer machinery and therefore its
// configuration parameters).
const (
	TierDisk    = "DISK"
	TierArchive = "ARCHIVE"

	PolicyHot  = "HOT"  // replicas belong on DISK
	PolicyCold = "COLD" // replicas belong on ARCHIVE
)

// Mover migrates replicas of policy-tagged files onto the matching storage
// tier. Like the Balancer it dispatches with ITS OWN
// max.concurrent.moves and backs off on mover-busy declines.
type Mover struct {
	env  *harness.Env
	conf *confkit.Conf
	nn   *rpcsim.Conn
}

// StartMover boots a Mover connected to the NameNode at nnAddr.
func StartMover(env *harness.Env, conf *confkit.Conf, nnAddr string) (*Mover, error) {
	env.RT.StartInit(TypeMover)
	defer env.RT.StopInit()

	m := &Mover{env: env, conf: conf.RefToClone()}
	sec := common.SecurityFromConf(m.conf)
	sec.RequireToken = m.conf.GetBool(ParamBlockAccessToken)
	nn, err := common.DialIPC(env.Fabric, nnAddr, m.conf, env.Scale, sec)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: mover cannot reach namenode: %w", err)
	}
	m.nn = nn
	return m, nil
}

// transferSecurity mirrors the Balancer's data-plane profile.
func (m *Mover) transferSecurity() rpcsim.Security {
	return rpcsim.Security{
		Protection: m.conf.Get(ParamDataTransferProtect),
		Encrypt:    m.conf.GetBool(ParamEncryptDataTransfer),
		Key:        "data-transfer-key",
		Version:    int(m.conf.GetInt(ParamPeerProtocolVersion)),
	}
}

// moverMove is one planned tier migration.
type moverMove struct {
	blockID  int64
	fromPeer string
	toPeer   string
	toDNID   string
}

// Run migrates every misplaced replica of files tagged with the given
// policy. It returns after all planned moves complete or a move fails
// non-transiently.
func (m *Mover) Run(policy string) error {
	wantTier := TierDisk
	if policy == PolicyCold {
		wantTier = TierArchive
	}

	report, err := MethodDatanodeReport.Call(m.nn, rpcsim.Empty{})
	if err != nil {
		return fmt.Errorf("minihdfs: mover: datanode report: %w", err)
	}
	tierOf := make(map[string]string)
	peerOf := make(map[string]string)
	var targets []DNInfo
	for _, dn := range report.Nodes {
		if dn.Dead {
			continue
		}
		tierOf[dn.DNID] = dn.Tier
		peerOf[dn.DNID] = dn.PeerAddr
		if dn.Tier == wantTier {
			targets = append(targets, dn)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("minihdfs: mover: no live %s datanodes", wantTier)
	}

	blocks, err := MethodPolicyBlocks.Call(m.nn, SnapshotReq{Name: policy})
	if err != nil {
		return fmt.Errorf("minihdfs: mover: list %s blocks: %w", policy, err)
	}
	var plan []moverMove
	ti := 0
	for _, blk := range blocks.Blocks {
		onTarget := make(map[string]bool)
		for _, loc := range blk.Locations {
			if tierOf[loc] == wantTier {
				onTarget[loc] = true
			}
		}
		for _, loc := range blk.Locations {
			if tierOf[loc] == wantTier {
				continue
			}
			dst := targets[ti%len(targets)]
			ti++
			if onTarget[dst.DNID] {
				continue
			}
			onTarget[dst.DNID] = true
			plan = append(plan, moverMove{
				blockID: blk.BlockID, fromPeer: peerOf[loc], toPeer: dst.PeerAddr, toDNID: dst.DNID,
			})
		}
	}
	return m.dispatch(plan)
}

// dispatch mirrors the Balancer's concurrency and congestion behaviour:
// workers bounded by the Mover's max.concurrent.moves, mover-busy declines
// retried after the 1100-tick backoff.
func (m *Mover) dispatch(plan []moverMove) error {
	if len(plan) == 0 {
		return nil
	}
	workers := int(m.conf.GetInt(ParamMaxConcurrentMoves))
	if workers < 1 {
		workers = 1
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	queue := make(chan moverMove, len(plan))
	for _, mv := range plan {
		queue <- mv
	}
	close(queue)

	movers := m.env.NewGroup()
	errCh := make(chan error, workers) // one send per worker at most
	for i := 0; i < workers; i++ {
		movers.Go(func() {
			for mv := range queue {
				if err := m.executeMove(mv); err != nil {
					errCh <- err
					return
				}
			}
		})
	}
	movers.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

func (m *Mover) executeMove(mv moverMove) error {
	for attempt := 0; attempt < 8; attempt++ {
		conn, err := m.env.Fabric.Dial(mv.fromPeer, m.transferSecurity(), m.env.Scale)
		if err != nil {
			return fmt.Errorf("minihdfs: mover: dial source %s: %w", mv.fromPeer, err)
		}
		err = MethodMoveReplica.Call(conn, MoveReplicaReq{
			BlockID: mv.blockID, TargetPeer: mv.toPeer, TargetDNID: mv.toDNID,
		})
		if err == nil {
			return nil
		}
		if strings.Contains(err.Error(), ErrMoverBusy) {
			m.env.Scale.Sleep(moverBackoffTicks)
			continue
		}
		return fmt.Errorf("minihdfs: mover: move block %d: %w", mv.blockID, err)
	}
	return fmt.Errorf("minihdfs: mover: block %d still declined after retries", mv.blockID)
}
