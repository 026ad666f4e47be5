-- why: correlated EXISTS with a local predicate: the Apply operator and its semi-join unnesting
SELECT c_custkey FROM customer AS c WHERE EXISTS (SELECT 1 FROM orders AS o WHERE c_custkey = o_custkey AND o_totalprice > 900.0)
