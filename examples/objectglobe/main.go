// ObjectGlobe scenario: MDV serving its original client, the ObjectGlobe
// distributed query processor (paper §1). The open marketplace has three
// supplier kinds — data providers, function providers, and cycle providers.
// A query optimizer at some site keeps a local repository of candidate
// suppliers for its workloads and discovers execution sites with local
// metadata queries, while providers come, go, and change capacity.
package main

import (
	"fmt"
	"log"

	"mdv/mdv"
)

func objectGlobeSchema() *mdv.Schema {
	s := mdv.NewSchema()
	// Cycle providers execute query operators.
	s.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverHost", Type: mdv.TypeString})
	s.MustAddProperty("CycleProvider", mdv.PropertyDef{Name: "serverPort", Type: mdv.TypeInteger})
	s.MustAddProperty("CycleProvider", mdv.PropertyDef{
		Name: "serverInformation", Type: mdv.TypeResource,
		RefClass: "ServerInformation", RefKind: mdv.StrongRef})
	s.MustAddProperty("ServerInformation", mdv.PropertyDef{Name: "memory", Type: mdv.TypeInteger})
	s.MustAddProperty("ServerInformation", mdv.PropertyDef{Name: "cpu", Type: mdv.TypeInteger})
	// Function providers offer query operators.
	s.MustAddProperty("FunctionProvider", mdv.PropertyDef{Name: "operator", Type: mdv.TypeString, SetValued: true})
	s.MustAddProperty("FunctionProvider", mdv.PropertyDef{Name: "codeBase", Type: mdv.TypeString})
	s.MustAddProperty("FunctionProvider", mdv.PropertyDef{
		Name: "hostedBy", Type: mdv.TypeResource, RefClass: "CycleProvider", RefKind: mdv.WeakRef})
	// Data providers supply data.
	s.MustAddProperty("DataProvider", mdv.PropertyDef{Name: "theme", Type: mdv.TypeString, SetValued: true})
	s.MustAddProperty("DataProvider", mdv.PropertyDef{Name: "sizeMB", Type: mdv.TypeInteger})
	return s
}

func cycleProviderDoc(i, memMB, cpuMHz int, domain string) *mdv.Document {
	doc := mdv.NewDocument(fmt.Sprintf("og/cycle%d.rdf", i))
	host := doc.NewResource("host", "CycleProvider")
	host.Add("serverHost", mdv.Lit(fmt.Sprintf("exec%02d.%s", i, domain)))
	host.Add("serverPort", mdv.Lit("5874"))
	host.Add("serverInformation", mdv.Ref(doc.QualifyID("info")))
	info := doc.NewResource("info", "ServerInformation")
	info.Add("memory", mdv.Lit(fmt.Sprint(memMB)))
	info.Add("cpu", mdv.Lit(fmt.Sprint(cpuMHz)))
	return doc
}

func functionProviderDoc(i int, ops ...string) *mdv.Document {
	doc := mdv.NewDocument(fmt.Sprintf("og/func%d.rdf", i))
	fp := doc.NewResource("fp", "FunctionProvider")
	for _, op := range ops {
		fp.Add("operator", mdv.Lit(op))
	}
	fp.Add("codeBase", mdv.Lit(fmt.Sprintf("http://functions.example.org/%d.jar", i)))
	return doc
}

func dataProviderDoc(i, sizeMB int, themes ...string) *mdv.Document {
	doc := mdv.NewDocument(fmt.Sprintf("og/data%d.rdf", i))
	dp := doc.NewResource("dp", "DataProvider")
	for _, th := range themes {
		dp.Add("theme", mdv.Lit(th))
	}
	dp.Add("sizeMB", mdv.Lit(fmt.Sprint(sizeMB)))
	return doc
}

func main() {
	schema := objectGlobeSchema()
	backbone, err := mdv.NewProvider("mdp-backbone", schema)
	if err != nil {
		log.Fatal(err)
	}
	defer backbone.Close()

	// The optimizer's site runs an LMR caching only the suppliers its
	// workloads can use: beefy cycle providers in its own domain, join
	// operators, and sports data.
	optimizer, err := mdv.NewRepositoryNode("lmr-optimizer", schema, backbone)
	if err != nil {
		log.Fatal(err)
	}
	for _, rule := range []string{
		`search CycleProvider c register c
		   where c.serverHost contains 'uni-passau.de'
		     and c.serverInformation.memory >= 256`,
		`search FunctionProvider f register f where f.operator? = 'join'`,
		`search DataProvider d register d where d.theme? = 'sports' and d.sizeMB >= 100`,
	} {
		if _, err := optimizer.AddSubscription(rule); err != nil {
			log.Fatal(err)
		}
	}

	// Suppliers register at the backbone over time.
	fmt.Println("== suppliers registering ==")
	for i, doc := range []*mdv.Document{
		cycleProviderDoc(1, 512, 800, "uni-passau.de"),
		cycleProviderDoc(2, 128, 600, "uni-passau.de"), // too little memory
		cycleProviderDoc(3, 1024, 900, "tum.de"),       // wrong domain
		functionProviderDoc(1, "join", "sort"),
		functionProviderDoc(2, "scan"),
		dataProviderDoc(1, 250, "sports", "news"),
		dataProviderDoc(2, 50, "sports"), // too small
	} {
		if err := backbone.RegisterDocument(doc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %s (cache now %d resources)\n", doc.URI, optimizer.Repository().Len())
		_ = i
	}

	// Discovery: plan a join over sports data — everything answered from
	// the local cache.
	fmt.Println("\n== optimizer discovery queries (local) ==")
	execSites, err := optimizer.Query(`
		search CycleProvider c register c where c.serverInformation.cpu >= 700`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range execSites {
		h, _ := r.Get("serverHost")
		fmt.Printf("execution site: %s\n", h.String())
	}
	joinImpls, err := optimizer.Query(`
		search FunctionProvider f register f where f.operator? = 'join'`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range joinImpls {
		cb, _ := r.Get("codeBase")
		fmt.Printf("join operator from: %s\n", cb.String())
	}
	data, err := optimizer.Query(`
		search DataProvider d register d where d.theme? = 'sports'`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range data {
		sz, _ := r.Get("sizeMB")
		fmt.Printf("sports data source: %s (%s MB)\n", r.URIRef, sz.String())
	}

	// A provider upgrades its hardware: the update is pushed and the
	// repository sees the new capacity immediately.
	fmt.Println("\n== provider 2 upgrades to 512 MB ==")
	upgraded := cycleProviderDoc(2, 512, 600, "uni-passau.de")
	if err := backbone.RegisterDocument(upgraded); err != nil {
		log.Fatal(err)
	}
	sites, _ := optimizer.Query(`search CycleProvider c register c`)
	fmt.Printf("cached cycle providers after upgrade: %d\n", len(sites))

	// A provider leaves the marketplace.
	fmt.Println("\n== provider 1 retires ==")
	if err := backbone.DeleteDocument("og/cycle1.rdf"); err != nil {
		log.Fatal(err)
	}
	sites, _ = optimizer.Query(`search CycleProvider c register c`)
	fmt.Printf("cached cycle providers after retirement: %d\n", len(sites))

	// The optimizer also tracks private, site-local endpoints that must
	// never reach the public backbone.
	private := mdv.NewDocument("og/private.rdf")
	pr := private.NewResource("gpu", "CycleProvider")
	pr.Add("serverHost", mdv.Lit("gpu.lab.internal"))
	pr.Add("serverPort", mdv.Lit("9999"))
	if err := optimizer.RegisterLocalDocument(private); err != nil {
		log.Fatal(err)
	}
	local, _ := optimizer.Query(`search CycleProvider c register c where c.serverHost contains 'internal'`)
	public, _ := backbone.Browse("CycleProvider", "internal")
	fmt.Printf("\nprivate endpoints visible locally: %d, at the backbone: %d\n", len(local), len(public))
}
