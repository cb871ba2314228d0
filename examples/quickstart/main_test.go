package main

// Example runs the program and pins its standard output.
func Example() {
	main()
	// Output:
	// scheme classification:
	//   (4,1)-chordal (acyclic)      yes
	//   (6,2)-chordal                yes
	//   (6,1)-chordal                yes
	//   V1-chordal                   yes
	//   V1-conformal                 yes
	//   V2-chordal                   yes
	//   V2-conformal                 yes
	//   => Steiner trees solvable exactly in polynomial time (Theorem 5)
	//
	// query {reader, author} answered by algorithm-2:
	//   connection: reader book author borrows wrote
	//   relations used: 2 (V2-minimum: true)
	//   rationale: (6,2)-chordal scheme: every nonredundant cover is minimum (Theorem 5)
	//
	// ranked interpretations:
	//   1. reader book author borrows wrote
	//
	// duplicate terminal rejected: core: invalid terminal: id 0 appears more than once in the query
}
