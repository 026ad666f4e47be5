-- why: LEFT JOIN that keeps customers without orders: outer padding, and the outer-join rule family
SELECT c_custkey, o_orderkey FROM customer LEFT JOIN orders ON c_custkey = o_custkey WHERE c_acctbal < 200.0
