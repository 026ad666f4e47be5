-- why: one foreign-key join under a filter: hash-join build and probe on the two mid-sized tables
SELECT o_orderkey, c_name, o_totalprice FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 600.0
