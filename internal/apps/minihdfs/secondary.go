package minihdfs

import (
	"fmt"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
	"zebraconf/internal/simtime"
)

// SecondaryNameNode periodically fetches namespace images from the
// NameNode, producing checkpoints.
type SecondaryNameNode struct {
	env  *harness.Env
	conf *confkit.Conf
	nn   *rpcsim.Conn

	mu          sync.Mutex
	checkpoints int
	lastImage   []byte

	stop  *simtime.Signal
	loops *simtime.Group
}

// StartSecondaryNameNode boots a checkpointer against the NameNode at
// nnAddr.
func StartSecondaryNameNode(env *harness.Env, conf *confkit.Conf, nnAddr string) (*SecondaryNameNode, error) {
	env.RT.StartInit(TypeSecondaryNN)
	defer env.RT.StopInit()

	snn := &SecondaryNameNode{env: env, conf: conf.RefToClone(), stop: env.Scale.NewSignal(), loops: env.NewGroup()}
	_ = snn.conf.GetInt(ParamCheckpointTxns)
	sec := common.SecurityFromConf(snn.conf)
	sec.RequireToken = snn.conf.GetBool(ParamBlockAccessToken)
	nn, err := common.DialIPC(env.Fabric, nnAddr, snn.conf, env.Scale, sec)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: secondary namenode cannot reach namenode: %w", err)
	}
	snn.nn = nn

	snn.loops.Go(snn.loop)
	return snn, nil
}

// Stop halts the checkpoint loop.
func (snn *SecondaryNameNode) Stop() {
	snn.stop.Fire()
	snn.loops.Wait()
}

func (snn *SecondaryNameNode) loop() {
	for {
		period := snn.conf.GetTicks(ParamCheckpointPeriod)
		if period < 1 {
			period = 1
		}
		if snn.env.Scale.Wait(period, snn.stop) {
			return
		}
		_ = snn.Checkpoint()
	}
}

// Checkpoint fetches an image now (also callable by tests, as HDFS tests
// call doCheckpoint).
func (snn *SecondaryNameNode) Checkpoint() error {
	img, err := MethodGetImage.Call(snn.nn, rpcsim.Empty{})
	if err != nil {
		return fmt.Errorf("minihdfs: checkpoint: %w", err)
	}
	raw := img.Image
	if img.Compressed {
		// Inflate with this node's own codec — the image does not carry
		// one. The read happens only for compressed images, so a default
		// campaign's pre-run never observes it.
		raw, err = decodeImageCodec(snn.conf.Get(ParamImageCodec), img.Image)
		if err != nil {
			return fmt.Errorf("minihdfs: checkpoint: decode image: %w", err)
		}
	}
	snn.mu.Lock()
	snn.checkpoints++
	snn.lastImage = raw
	snn.mu.Unlock()
	return nil
}

// Checkpoints reports how many checkpoints completed.
func (snn *SecondaryNameNode) Checkpoints() int {
	snn.mu.Lock()
	defer snn.mu.Unlock()
	return snn.checkpoints
}

// LastImage returns the decompressed contents of the latest checkpoint.
func (snn *SecondaryNameNode) LastImage() []byte {
	snn.mu.Lock()
	defer snn.mu.Unlock()
	return snn.lastImage
}
