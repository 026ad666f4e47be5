-- why: ORDER BY with LIMIT on a total order (price, then the key): stable multi-key sort and top-N
SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100.0 ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
