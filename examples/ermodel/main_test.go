package main

// Example runs the program and pins its standard output.
func Example() {
	main()
	// Output:
	// entity-relationship scheme (the paper's Fig 1):
	//   attribute    NAME
	//   attribute    DATE
	//   attribute    D#
	//   attribute    BUDGET
	//   entity       EMPLOYEE = (NAME, DATE)
	//   entity       DEPARTMENT = (D#, BUDGET)
	//   relationship WORKS_IN = (EMPLOYEE, DEPARTMENT, DATE)
	// strictly layered: false (WORKS_IN carries DATE directly)
	//
	// query [EMPLOYEE DATE]:
	//   reading 1: connect via {DATE, EMPLOYEE} (auxiliary objects: none)
	//   reading 2: connect via {DATE, EMPLOYEE, WORKS_IN} (auxiliary objects: WORKS_IN)
	//
	// query [NAME BUDGET]:
	//   reading 1: connect via {NAME, BUDGET, EMPLOYEE, DEPARTMENT, WORKS_IN} (auxiliary objects: EMPLOYEE, DEPARTMENT, WORKS_IN)
	//   reading 2: connect via {NAME, DATE, BUDGET, EMPLOYEE, DEPARTMENT, WORKS_IN} (auxiliary objects: DATE, EMPLOYEE, DEPARTMENT, WORKS_IN)
	//
	// query [DEPARTMENT NAME]:
	//   reading 1: connect via {NAME, EMPLOYEE, DEPARTMENT, WORKS_IN} (auxiliary objects: EMPLOYEE, WORKS_IN)
	//   reading 2: connect via {NAME, DATE, EMPLOYEE, DEPARTMENT, WORKS_IN} (auxiliary objects: DATE, EMPLOYEE, WORKS_IN)
	//
	// layered scheme bipartite view: 2 objects on the entity side, 3 on the other
}
