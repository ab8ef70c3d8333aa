// Federation: the full 3-tier architecture of paper Figure 2 over real TCP
// sockets. Two metadata providers form a replicated backbone — mdp-eu is the
// primary, mdp-us follows its changelog and proxies writes back to it; two
// local repositories in different "regions" connect to different providers;
// an administration client registers metadata at one provider; application
// clients query their nearest repository. Everything any application sees
// travelled: admin -> MDP1 -> (changelog stream) -> MDP2 -> (publish) ->
// LMR -> (query) -> client.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mdv/mdv"
)

func schema() *mdv.Schema {
	s := mdv.NewSchema()
	s.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverHost", Type: mdv.TypeString})
	s.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "region", Type: mdv.TypeString})
	s.MustAddProperty("CycleProvider", mdv.PropertyDef{
		Name: "serverInformation", Type: mdv.TypeResource,
		RefClass: "ServerInformation", RefKind: mdv.StrongRef})
	s.MustAddProperty("ServerInformation", mdv.PropertyDef{Name: "memory", Type: mdv.TypeInteger})
	return s
}

func doc(i int, region string, memory int) *mdv.Document {
	d := mdv.NewDocument(fmt.Sprintf("fed/provider%d.rdf", i))
	cp := d.NewResource("cp", "CycleProvider")
	cp.Add("serverHost", mdv.Lit(fmt.Sprintf("node%02d.%s.example.org", i, region)))
	cp.Add("region", mdv.Lit(region))
	cp.Add("serverInformation", mdv.Ref(d.QualifyID("si")))
	si := d.NewResource("si", "ServerInformation")
	si.Add("memory", mdv.Lit(fmt.Sprint(memory)))
	return d
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func main() {
	sch := schema()

	// Backbone: two durable MDPs serving on ephemeral TCP ports. mdp-us
	// replicates mdp-eu's changelog over the wire and proxies writes to it.
	dataDir, err := os.MkdirTemp("", "mdv-federation-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	mdpEU, err := mdv.OpenDurableProvider("mdp-eu", sch, filepath.Join(dataDir, "eu"), mdv.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	addrEU, err := mdpEU.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mdpEU.Close()
	mdpUS, err := mdv.OpenDurableProvider("mdp-us", sch, filepath.Join(dataDir, "us"), mdv.DurableOptions{Replica: true})
	if err != nil {
		log.Fatal(err)
	}
	addrUS, err := mdpUS.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mdpUS.Close()
	follower, err := mdv.StartFollower(mdpUS, mdv.FollowerOptions{Primary: addrEU})
	if err != nil {
		log.Fatal(err)
	}
	defer follower.Close()
	waitFor(follower.Connected)
	fmt.Printf("backbone: mdp-eu@%s <-> mdp-us@%s\n", addrEU, addrUS)

	// Middle tier: each region's repository connects to its provider over
	// the wire and subscribes to its region's metadata.
	connEU, err := mdv.DialProvider(addrEU)
	if err != nil {
		log.Fatal(err)
	}
	defer connEU.Close()
	lmrEU, err := mdv.NewRepositoryNode("lmr-eu", sch, connEU)
	if err != nil {
		log.Fatal(err)
	}
	lmrEUAddr, err := lmrEU.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer lmrEU.Close()

	connUS, err := mdv.DialProvider(addrUS)
	if err != nil {
		log.Fatal(err)
	}
	defer connUS.Close()
	lmrUS, err := mdv.NewRepositoryNode("lmr-us", sch, connUS)
	if err != nil {
		log.Fatal(err)
	}
	lmrUSAddr, err := lmrUS.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer lmrUS.Close()

	if _, err := lmrEU.AddSubscription(
		`search CycleProvider c register c where c.region = 'eu'`); err != nil {
		log.Fatal(err)
	}
	if _, err := lmrUS.AddSubscription(
		`search CycleProvider c register c where c.region = 'us'`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repositories: lmr-eu@%s (at mdp-eu), lmr-us@%s (at mdp-us)\n", lmrEUAddr, lmrUSAddr)

	// Administration: one client registers all metadata at mdp-eu only.
	admin, err := mdv.DialProvider(addrEU)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	for i := 1; i <= 6; i++ {
		region := "eu"
		if i%2 == 0 {
			region = "us"
		}
		if err := admin.RegisterDocument(doc(i, region, 128*i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("admin registered 6 documents at mdp-eu")

	// The us documents reach lmr-us through the replicated changelog.
	waitFor(func() bool { return lmrUS.Repository().Len() >= 6 }) // 3 cp + 3 si
	waitFor(func() bool { return lmrEU.Repository().Len() >= 6 })

	// Application clients query their regional repository over the wire.
	for _, tier := range []struct{ name, addr, q string }{
		{"app-eu", lmrEUAddr, `search CycleProvider c register c where c.serverInformation.memory >= 256`},
		{"app-us", lmrUSAddr, `search CycleProvider c register c where c.serverInformation.memory >= 256`},
	} {
		app, err := mdv.DialRepository(tier.addr)
		if err != nil {
			log.Fatal(err)
		}
		rs, err := app.Query(tier.q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s query hits:\n", tier.name)
		for _, r := range rs {
			h, _ := r.Get("serverHost")
			fmt.Printf("  %s\n", h.String())
		}
		app.Close()
	}

	// A document registered at the OTHER provider still reaches every
	// region: the follower proxies the write to the primary.
	fmt.Println("late registration at mdp-us:")
	admin2, err := mdv.DialProvider(addrUS)
	if err != nil {
		log.Fatal(err)
	}
	defer admin2.Close()
	if err := admin2.RegisterDocument(doc(7, "eu", 1024)); err != nil {
		log.Fatal(err)
	}
	waitFor(func() bool {
		_, ok, err := lmrEU.Repository().Get("fed/provider7.rdf#cp")
		if err != nil {
			log.Fatal(err)
		}
		return ok
	})
	rs, err := lmrEU.Query(`search CycleProvider c register c where c.serverInformation.memory = 1024`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  visible at lmr-eu: %v\n", len(rs) == 1)
}
