-- why: INTERSECT of a key with a foreign-key column of the largest table: IntersectToSemiJoin
SELECT s_suppkey AS k FROM supplier INTERSECT SELECT l_suppkey AS k FROM lineitem
