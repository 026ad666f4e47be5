-- why: aggregate above a join: the eager-aggregation rule family chooses between grouping before and after the join
SELECT c_nationkey, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_nationkey
