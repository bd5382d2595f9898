package minihdfs

import (
	"errors"
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

// moverBackoffTicks is the Balancer's congestion backoff after a DataNode
// declines a move because all its mover threads are busy. The real HDFS
// constant is 1100 ms; one tick stands for one millisecond.
const moverBackoffTicks = 1100

// approveRetryTicks is the delay before re-proposing a move the NameNode
// declined for placement-policy reasons.
const approveRetryTicks = 100

// balancerIdleTimeoutTicks bounds how long the Balancer waits without any
// progress (move completion or DataNode progress report) before aborting —
// the "Balancer timeout" of the Table 3 bandwidth finding. It must exceed
// moverBackoffTicks: a congestion-backoff round making slow progress is not
// a stall.
const balancerIdleTimeoutTicks = 2000

// ErrBalancerTimeout is returned when balancing stalls.
var ErrBalancerTimeout = errors.New("minihdfs: balancer timed out waiting for progress")

// plannedMove is one block relocation in the Balancer's plan.
type plannedMove struct {
	blockID  int64
	fromDN   string
	fromPeer string
	toDN     string
	toPeer   string
}

// Balancer redistributes block replicas across DataNodes. It is a node
// (paper Table 2): it has its own configuration, its own init function, and
// a progress endpoint DataNodes report to.
type Balancer struct {
	env  *harness.Env
	conf *confkit.Conf
	addr string
	nn   *rpcsim.Conn
	srv  *rpcsim.Server

	mu           sync.Mutex
	lastProgress int64
}

// StartBalancer boots a Balancer connected to the NameNode at nnAddr.
func StartBalancer(env *harness.Env, conf *confkit.Conf, addr, nnAddr string) (*Balancer, error) {
	env.RT.StartInit(TypeBalancer)
	defer env.RT.StopInit()

	b := &Balancer{env: env, conf: conf.RefToClone(), addr: addr}
	sec := common.SecurityFromConf(b.conf)
	sec.RequireToken = b.conf.GetBool(ParamBlockAccessToken)
	nn, err := common.DialIPC(env.Fabric, nnAddr, b.conf, env.Scale, sec)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: balancer cannot reach namenode: %w", err)
	}
	b.nn = nn
	srv, err := env.Fabric.Serve(addr, rpcsim.Security{}, env.Scale, balancerRPC.Bind("minihdfs: balancer", b))
	if err != nil {
		return nil, fmt.Errorf("minihdfs: start balancer: %w", err)
	}
	b.srv = srv
	return b, nil
}

// Stop shuts the Balancer's progress endpoint down.
func (b *Balancer) Stop() { b.srv.Close() }

func (b *Balancer) touchProgress() {
	b.mu.Lock()
	b.lastProgress = b.env.Scale.Now()
	b.mu.Unlock()
}

func (b *Balancer) sinceProgress() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.env.Scale.Now() - b.lastProgress
}

// Run performs one balancing round: plan moves from over- to under-utilized
// DataNodes (validating placement with the Balancer's OWN upgrade-domain
// factor), then dispatch them with the Balancer's OWN concurrency setting.
// Both uses of local configuration are exactly the heterogeneity hazards
// the paper's two balancer case studies describe.
func (b *Balancer) Run() error {
	plan, err := b.plan()
	if err != nil {
		return err
	}
	if len(plan) == 0 {
		return nil
	}
	return b.dispatch(plan)
}

// plan computes the move list from the NameNode's view of the cluster.
func (b *Balancer) plan() ([]plannedMove, error) {
	report, err := MethodDatanodeReport.Call(b.nn, rpcsim.Empty{})
	if err != nil {
		return nil, fmt.Errorf("minihdfs: balancer: datanode report: %w", err)
	}
	var live []DNInfo
	total := 0
	for _, dn := range report.Nodes {
		if dn.Dead {
			continue
		}
		live = append(live, dn)
		total += dn.Blocks
	}
	if len(live) < 2 {
		return nil, nil
	}
	avg := float64(total) / float64(len(live))
	counts := make(map[string]int, len(live))
	domains := make(map[string]string, len(live))
	peers := make(map[string]string, len(live))
	for _, dn := range live {
		counts[dn.DNID] = dn.Blocks
		domains[dn.DNID] = dn.Domain
		peers[dn.DNID] = dn.PeerAddr
	}
	factor := b.conf.GetInt(ParamUpgradeDomainFactor)

	var plan []plannedMove
	planned := make(map[int64]bool)
	for {
		src, dst := pickEndpoints(counts, avg)
		if src == "" || dst == "" {
			break
		}
		move, ok := b.pickBlock(src, dst, domains, factor, planned)
		if !ok {
			// No block on src can legally move to dst under the Balancer's
			// placement view; stop planning between this pair.
			break
		}
		planned[move.blockID] = true
		move.fromPeer = peers[src]
		move.toPeer = peers[dst]
		plan = append(plan, move)
		counts[src]--
		counts[dst]++
	}
	return plan, nil
}

// pickEndpoints returns the most over-utilized and most under-utilized
// DataNodes still more than one block away from the average.
func pickEndpoints(counts map[string]int, avg float64) (src, dst string) {
	ids := make([]string, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	srcExcess, dstDeficit := 1.0, 1.0
	for _, id := range ids {
		if excess := float64(counts[id]) - avg; excess >= srcExcess {
			src, srcExcess = id, excess
		}
		if deficit := avg - float64(counts[id]); deficit >= dstDeficit {
			dst, dstDeficit = id, deficit
		}
	}
	return src, dst
}

// pickBlock selects a block on src whose move to dst satisfies the
// Balancer's OWN upgrade-domain check: after the move the replicas must
// span at least min(#replicas, factor) distinct domains.
func (b *Balancer) pickBlock(src, dst string, domains map[string]string, factor int64, planned map[int64]bool) (plannedMove, bool) {
	blocks, err := MethodBlocksOnDN.Call(b.nn, RegisterReq{DNID: src})
	if err != nil {
		return plannedMove{}, false
	}
	for _, blk := range blocks.Blocks {
		if planned[blk.BlockID] {
			continue
		}
		already := false
		domainSet := make(map[string]bool)
		for _, loc := range blk.Locations {
			if loc == dst {
				already = true
				break
			}
			d := loc
			if d == src {
				d = dst
			}
			domainSet[domains[d]] = true
		}
		if already {
			continue
		}
		need := int64(len(blk.Locations))
		if factor < need {
			need = factor
		}
		if int64(len(domainSet)) < need {
			continue
		}
		return plannedMove{blockID: blk.BlockID, fromDN: src, toDN: dst}, true
	}
	return plannedMove{}, false
}

// dispatch executes the plan with concurrency bounded by the Balancer's
// max.concurrent.moves. Declined moves back off: moverBackoffTicks when a
// DataNode's mover threads are busy (congestion control), approveRetryTicks
// when the NameNode rejects the placement. A watchdog aborts the round when
// no progress arrives within balancerIdleTimeoutTicks.
func (b *Balancer) dispatch(plan []plannedMove) error {
	workers := int(b.conf.GetInt(ParamMaxConcurrentMoves))
	if workers < 1 {
		workers = 1
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	b.touchProgress()

	queue := make(chan plannedMove, len(plan))
	for _, m := range plan {
		queue <- m
	}
	close(queue)

	abort := b.env.Scale.NewSignal()
	stopWatch := b.env.Scale.NewSignal()
	var watchErr error
	watch := b.env.NewGroup()
	watch.Go(func() {
		for !b.env.Scale.Wait(monitorTicks*4, stopWatch) {
			if b.sinceProgress() > balancerIdleTimeoutTicks {
				watchErr = ErrBalancerTimeout
				abort.Fire()
				return
			}
		}
	})

	movers := b.env.NewGroup()
	errCh := make(chan error, workers) // one send per worker at most
	for i := 0; i < workers; i++ {
		movers.Go(func() {
			for m := range queue {
				if err := b.executeMove(m, abort); err != nil {
					errCh <- err
					abort.Fire()
					return
				}
				if abort.Fired() {
					return
				}
			}
		})
	}
	movers.Wait()
	stopWatch.Fire()
	watch.Wait()
	if watchErr != nil {
		return watchErr
	}
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// executeMove drives one move to completion, retrying declines until the
// round is aborted.
func (b *Balancer) executeMove(m plannedMove, abort *simtime.Signal) error {
	for {
		if abort.Fired() {
			return nil
		}
		err := MethodApproveMove.Call(b.nn, ApproveMoveReq{BlockID: m.blockID, FromDN: m.fromDN, ToDN: m.toDN})
		if err != nil {
			if strings.Contains(err.Error(), "placement policy") {
				// The NameNode disagrees with our placement view; the real
				// Balancer retries and warns. Wait and re-propose.
				if !b.sleepOrAbort(approveRetryTicks, abort) {
					return nil
				}
				continue
			}
			return fmt.Errorf("minihdfs: balancer: approve move of block %d: %w", m.blockID, err)
		}

		conn, err := b.env.Fabric.Dial(m.fromPeer, b.sourceSecurity(), b.env.Scale)
		if err != nil {
			return fmt.Errorf("minihdfs: balancer: dial source %s: %w", m.fromPeer, err)
		}
		err = MethodMoveReplica.Call(conn, MoveReplicaReq{
			BlockID: m.blockID, TargetPeer: m.toPeer, TargetDNID: m.toDN, BalancerAddr: b.addr,
		})
		if err == nil {
			b.touchProgress()
			return nil
		}
		if strings.Contains(err.Error(), ErrMoverBusy) {
			// Congestion control: the DataNode's mover threads are all
			// busy; back off before retrying (paper §7.1: the 1100 ms
			// sleep that makes heterogeneous max.concurrent.moves ~10x
			// slower).
			if !b.sleepOrAbort(moverBackoffTicks, abort) {
				return nil
			}
			continue
		}
		return fmt.Errorf("minihdfs: balancer: move block %d: %w", m.blockID, err)
	}
}

// sourceSecurity is the profile the Balancer dials DataNode peer endpoints
// with: the Balancer participates in the data-transfer protocol using its
// own configuration.
func (b *Balancer) sourceSecurity() rpcsim.Security {
	return rpcsim.Security{
		Protection: b.conf.Get(ParamDataTransferProtect),
		Encrypt:    b.conf.GetBool(ParamEncryptDataTransfer),
		Key:        "data-transfer-key",
		Version:    int(b.conf.GetInt(ParamPeerProtocolVersion)),
	}
}

// sleepOrAbort sleeps for ticks, returning false if the round aborted.
func (b *Balancer) sleepOrAbort(ticks int64, abort *simtime.Signal) bool {
	return !b.env.Scale.Wait(ticks, abort)
}
