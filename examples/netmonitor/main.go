// Network-monitoring scenario (the monitoring application class cited in
// the paper's introduction): correlate flow records with intrusion
// signatures using a type-T2 join — an arithmetic expression over several
// attributes on each side — which only the DAI-V algorithm of Section 4.5
// can evaluate. Run with:
//
//	go run ./examples/netmonitor
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cqjoin"
)

func main() {
	catalog := cqjoin.MustCatalog(
		// Flows: sampled flow records with byte and packet counters.
		cqjoin.MustSchema("Flows", "Id", "SrcSubnet", "Bytes", "Packets"),
		// Signatures: anomaly profiles expressed on a derived score.
		cqjoin.MustSchema("Signatures", "Id", "Name", "Score", "Weight"),
	)
	cluster, err := cqjoin.NewCluster(cqjoin.Config{
		Nodes:     256,
		Catalog:   catalog,
		Algorithm: cqjoin.DAIV, // required: the join sides are expressions
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.OnNotify(func(n cqjoin.Notification) {
		fmt.Printf("  alert: %s\n", n)
	})

	// A type-T2 continuous query: a flow matches a signature when its
	// derived score (bytes/packets, the mean packet size) equals the
	// signature's weighted score. Both sides are multi-attribute
	// expressions — no single index attribute exists.
	soc := cluster.Node(0)
	if _, err := soc.Subscribe(`
		SELECT F.SrcSubnet, S.Name
		FROM Flows AS F, Signatures AS S
		WHERE F.Bytes / F.Packets = S.Score * S.Weight`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("SOC installed a T2 correlation query (DAI-V)")

	// Install signatures, then replay flow records.
	sensors := cluster.Node(40)
	sensors.Publish("Signatures", 1, "exfil-1500", 750, 2) // score*weight = 1500
	sensors.Publish("Signatures", 2, "beacon-64", 32, 2)   // 64

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		packets := 1 + rng.Intn(10)
		var bytes int
		switch rng.Intn(5) {
		case 0:
			bytes = 1500 * packets // matches exfil-1500
		case 1:
			bytes = 64 * packets // matches beacon-64
		default:
			bytes = (100 + rng.Intn(900)) * packets
		}
		cluster.Node(50+i).Publish("Flows", i, fmt.Sprintf("10.0.%d.0/24", rng.Intn(16)), bytes, packets)
	}

	fmt.Printf("alerts delivered: %d\n", cluster.NotificationCount())
	fmt.Printf("traffic:\n%s\n", cluster.Traffic())
}
