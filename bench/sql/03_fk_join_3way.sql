-- why: three-way foreign-key join from the largest table: join order and intermediate sizes decide the time
SELECT l_orderkey, l_linenumber, c_custkey FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey WHERE l_quantity < 40 AND c_acctbal > 500.0
