-- why: NOT EXISTS against the largest table: anti-join unnesting, result is the parts no line item references
SELECT p_partkey FROM part AS p WHERE NOT EXISTS (SELECT 1 FROM lineitem AS l WHERE p_partkey = l_partkey)
