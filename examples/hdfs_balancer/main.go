// hdfs_balancer reproduces the paper's dfs.datanode.balance.max.concurrent.
// moves case study (§7.1): balancing time for (DataNode:50, Balancer:50),
// (DataNode:1, Balancer:1), and the heterogeneous (DataNode:1, Balancer:50),
// where the Balancer's congestion backoff fires on nearly every move and
// the round runs roughly an order of magnitude slower.
//
// The paper measured 14 s, 16.7 s, and 154 s. Here the rounds run on the
// environment's virtual clock and are reported in its ticks: the same
// numbers on every run, at no cost in wall time, and the shape —
// (50,50) <= (1,1) << (1,50) — reproduces.
package main

import (
	"fmt"

	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/simtime"
)

// run performs one balancing round with the given concurrent-moves values
// on DataNodes and the Balancer, returning elapsed ticks of the virtual clock.
func run(dnMoves, balancerMoves int64) (int64, error) {
	env := harness.NewEnv(minihdfs.NewRegistry(), nil, 1)
	defer env.Close()

	// In a real deployment each node has its own configuration file; give
	// the DataNodes and the Balancer separate objects with different
	// values — no agent needed to go heterogeneous here.
	dnConf := env.RT.NewConf()
	dnConf.SetInt(minihdfs.ParamMaxConcurrentMoves, dnMoves)
	balConf := env.RT.NewConf()
	balConf.SetInt(minihdfs.ParamMaxConcurrentMoves, balancerMoves)

	cluster, err := minihdfs.StartCluster(env, dnConf, minihdfs.ClusterOptions{DataNodes: 1})
	if err != nil {
		return 0, err
	}
	client, err := cluster.Client(dnConf)
	if err != nil {
		return 0, err
	}
	if err := cluster.WaitActive(client, cluster.ActiveDeadline(dnConf)); err != nil {
		return 0, err
	}
	for i := 0; i < 16; i++ {
		if err := client.WriteFile(fmt.Sprintf("/blk-%02d", i), payload(1000)); err != nil {
			return 0, err
		}
	}
	if _, err := cluster.AddDataNode(); err != nil {
		return 0, err
	}
	if err := cluster.WaitActive(client, cluster.ActiveDeadline(dnConf)); err != nil {
		return 0, err
	}

	balancer, err := minihdfs.StartBalancer(env, balConf, "balancer", minihdfs.NNAddr)
	if err != nil {
		return 0, err
	}
	defer balancer.Stop()

	sw := simtime.NewStopwatch(env.Scale)
	if err := balancer.Run(); err != nil {
		return sw.ElapsedTicks(), err
	}
	return sw.ElapsedTicks(), nil
}

func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	return data
}

func main() {
	fmt.Println("dfs.datanode.balance.max.concurrent.moves case study (paper §7.1)")
	fmt.Println("paper wall-clock: (50,50)=14s  (1,1)=16.7s  (1,50)=154s (~10x)")
	fmt.Println()

	configs := []struct {
		name    string
		dn, bal int64
	}{
		{"homogeneous (DN:50, Balancer:50)", 50, 50},
		{"homogeneous (DN:1,  Balancer:1) ", 1, 1},
		{"HETEROGENEOUS (DN:1, Balancer:50)", 1, 50},
	}
	var times []int64
	for _, c := range configs {
		ticks, err := run(c.dn, c.bal)
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		fmt.Printf("%-36s %8d ticks   %s\n", c.name, ticks, status)
		times = append(times, ticks)
	}
	if len(times) == 3 && times[1] > 0 {
		fmt.Printf("\nslowdown of the heterogeneous configuration vs (1,1): %.1fx (paper: ~9.2x)\n",
			float64(times[2])/float64(times[1]))
	}
}
