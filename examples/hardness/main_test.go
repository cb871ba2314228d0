package main

// Example runs the program and pins its standard output.
func Example() {
	main()
	// Output:
	// X3C instance: |X| = 6, C = [[0 1 2] [2 3 4] [3 4 5]]
	// solvable: true
	// gadget: 10 nodes, 12 arcs; V1-chordal=true V1-conformal=true
	// Steiner optimum over P = V2: 9 nodes (budget 4q+1 = 9)
	// selected triples: c1=[0 1 2] c3=[3 4 5] — an exact 3-cover, read off the tree
	// without c1 (unsolvable): terminals not even connectable (steiner: terminals are not connected in the graph)
	//
	// chordal graph: 8 nodes, 14 arcs, chordal=true
	// subdivision gadget: V1-chordal=true V1-conformal=false
	// direct min-arc connection in the chordal graph: 1 arcs
	// V2 nodes in the gadget connection: 1 (equal by the reduction)
}
