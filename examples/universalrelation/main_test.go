package main

// Example runs the program and pins its standard output.
func Example() {
	main()
	// Output:
	// schema: schema{employee(ename,deptno); department(deptno,dname,floor); location(floor,building); assignment(ename,projno); project(projno,pname,budget)}
	// acyclicity degree: Berge-acyclic
	//
	// query [ename dname]
	//   plan: join employee ⋈ department (2 relations, V2-minimum=true, method=algorithm-2)
	//   answer [ename dname]:
	//     [ann toys]
	//     [bob tools]
	//     [cam toys]
	// query [ename building]
	//   plan: join employee ⋈ department ⋈ location (3 relations, V2-minimum=true, method=algorithm-2)
	//   answer [ename building]:
	//     [ann north]
	//     [bob south]
	//     [cam north]
	// query [pname dname]
	//   plan: join employee ⋈ department ⋈ assignment ⋈ project (4 relations, V2-minimum=true, method=algorithm-2)
	//   answer [pname dname]:
	//     [atlas toys]
	//     [atlas tools]
	//     [borel toys]
	// query [budget floor ename]
	//   plan: join employee ⋈ department ⋈ assignment ⋈ project (4 relations, V2-minimum=true, method=algorithm-2)
	//   answer [budget floor ename]:
	//     [100 2 ann]
	//     [100 3 bob]
	//     [250 2 cam]
	// interpretations of {ename, floor}:
	//   1. ename deptno floor employee department
}
