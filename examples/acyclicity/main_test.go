package main

// Example runs the program and pins its standard output.
func Example() {
	main()
	// Output:
	// Berge-acyclic  schema{emp(ename,deptno); dept(deptno,floor)}
	//     why here: relations pairwise share at most one attribute, no cycle at all
	//     measured degree: Berge-acyclic
	//     graph side (Theorem 1): (4,1)=true (6,2)=true (6,1)=true alphaV1=true
	//     join tree parents: [-1 0]
	//
	// gamma-acyclic  schema{flight(from,to); leg(from,to,aircraft)}
	//     why here: two relations share two attributes (a Berge cycle) but nest
	//     measured degree: gamma-acyclic
	//     graph side (Theorem 1): (4,1)=false (6,2)=true (6,1)=true alphaV1=true
	//     Berge-cycle witness through 2 edges
	//     join tree parents: [-1 0]
	//
	// beta-acyclic   schema{r1(a,b); r2(b,c); r3(a,b,c)}
	//     why here: a gamma-triangle: r1/r3 and r3/r2 overlap asymmetrically
	//     measured degree: beta-acyclic
	//     graph side (Theorem 1): (4,1)=false (6,2)=false (6,1)=true alphaV1=true
	//     Berge-cycle witness through 3 edges
	//     gamma-triangle witness: (r1, r3, r2)
	//     join tree parents: [-1 2 0]
	//
	// alpha-acyclic  schema{r1(a,b); r2(b,c); r3(c,a); all(a,b,c)}
	//     why here: a covered triangle: GYO succeeds but the sub-schema {r1,r2,r3} is cyclic
	//     measured degree: alpha-acyclic
	//     graph side (Theorem 1): (4,1)=false (6,2)=false (6,1)=false alphaV1=true
	//     Berge-cycle witness through 3 edges
	//     gamma-triangle witness: (r1, r3, r2)
	//     join tree parents: [-1 3 3 0]
	//
	// cyclic         schema{r1(a,b); r2(b,c); r3(c,a)}
	//     why here: the bare triangle: GYO gets stuck
	//     measured degree: cyclic
	//     graph side (Theorem 1): (4,1)=false (6,2)=false (6,1)=false alphaV1=false
	//     Berge-cycle witness through 3 edges
	//     gamma-triangle witness: (r1, r3, r2)
	//     conformality witness (uncovered clique): [a b c]
	//     no join tree (not alpha-acyclic)
	//
}
