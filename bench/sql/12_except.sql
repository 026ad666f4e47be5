-- why: EXCEPT: the customers without orders, rewritten to an anti-join by ExceptToAntiJoin
SELECT c_custkey AS k FROM customer EXCEPT SELECT o_custkey AS k FROM orders
