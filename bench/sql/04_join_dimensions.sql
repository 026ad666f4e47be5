-- why: a chain of small dimension joins: per-operator fixed cost rather than per-row cost
SELECT s_suppkey, n_name, r_name FROM supplier JOIN nation ON s_nationkey = n_nationkey JOIN region ON n_regionkey = r_regionkey
