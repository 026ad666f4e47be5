-- why: UNION of two key columns: duplicate-eliminating set operation over differently sized inputs
SELECT o_custkey AS k FROM orders UNION SELECT c_custkey AS k FROM customer
