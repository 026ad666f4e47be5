-- why: global aggregate with MIN and MAX under a date filter: one output row, all time in the scan and the aggregate
SELECT COUNT(*) AS n, MIN(l_shipdate) AS lo, MAX(l_shipdate) AS hi, SUM(l_quantity) AS q FROM lineitem WHERE l_shipdate > 730500
