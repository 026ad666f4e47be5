-- why: GROUP BY with COUNT, SUM and AVG over the largest table: group-id vector aggregation, and the AvgToSumDivCount rule
SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total, AVG(l_discount) AS d FROM lineitem GROUP BY l_suppkey
