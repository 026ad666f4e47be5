-- why: single-table filter and projection: the columnar scan and NULL-aware comparison kernels with nothing else in the way
SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem WHERE l_quantity > 150 AND l_discount < 300.0
