-- why: IN over a filtered subquery: semi-join on a non-key column of the outer table
SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 800.0)
