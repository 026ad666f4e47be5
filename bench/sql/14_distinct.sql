-- why: DISTINCT over a filtered pair of non-key columns: the canonical-view distinct kernel
SELECT DISTINCT l_partkey, l_suppkey FROM lineitem WHERE l_quantity > 100
