package main

// Example runs the program and pins its standard output.
func Example() {
	main()
	// Output:
	// original scheme: schema{supplies(supplier,part); uses(project,part); contracts(supplier,project); stores(part,warehouse); ships(warehouse,supplier)}
	// acyclicity degree: cyclic
	// no join tree exists: semijoin programs and Theorem 3 planning unavailable
	// bipartite view: (6,2)-chordal=false  V1-chordal∧V1-conformal=false
	//
	// acyclic cover (fill=0 attribute pairs): schema{clique0(supplier,part,project); clique1(supplier,part,warehouse)}
	// cover degree: gamma-acyclic
	//   supplies   embeds into clique0
	//   uses       embeds into clique0
	//   contracts  embeds into clique0
	//   stores     embeds into clique1
	//   ships      embeds into clique1
	// cover join tree parents: [-1 0]
	//
	// query [supplier warehouse] → join clique1 (method=algorithm-2, relation-minimal=true)
	// query [project warehouse] → join clique0 ⋈ clique1 (method=algorithm-2, relation-minimal=true)
}
