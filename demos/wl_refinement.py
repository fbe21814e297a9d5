"""Watch 1-WL color refinement tell graph structures apart.

Node colors start from degrees (or tags when present) and are refined
by hashing each node's color together with its sorted neighbor colors.
The whole collection is refined as one disjoint union with a shared
dictionary, so every graph goes through the same rounds and codes
compare across graphs: equal codes <=> equal refinement trees of one
depth, whichever graph a node sits in.
"""

from segbert import GraphInstance, dataset_wl_codes


triangle = GraphInstance(node_count=3, edges=[(0, 1), (1, 2), (2, 0)])
path = GraphInstance(node_count=3, edges=[(0, 1), (1, 2)])
star = GraphInstance(node_count=4, edges=[(0, 1), (0, 2), (0, 3)])

print("Every triangle node has degree 2; so does the middle path node.")
print("Degrees alone cannot separate them, refinement can:\n")

for rounds in range(3):
    tri, pat, st = dataset_wl_codes([triangle, path, star], iterations=rounds)
    print(f"after {rounds} round(s):")
    print(f"  triangle codes {tri}")
    print(f"  path     codes {pat}")
    print(f"  star     codes {st}")

tri, pat, _ = dataset_wl_codes([triangle, path, star], iterations=2)
overlap = set(tri) & set(pat)
print(f"\ntriangle/path code overlap after 2 rounds: {overlap or 'none'}")
print("The triangle's neighbors-of-neighbors all look alike; the path's")
print("middle node sees two degree-1 ends and ends up in its own class.")

print("\nTags, when present, replace degrees as the starting colors:")
tagged = GraphInstance(node_count=3, edges=[(0, 1), (1, 2)])
tagged.node_tags = [7, 7, 7]
plain = GraphInstance(node_count=3, edges=[(0, 1), (1, 2)])
t_codes, p_codes = dataset_wl_codes([tagged, plain], iterations=0)
print(f"  uniform tags  -> one initial class:   {t_codes}")
print(f"  degrees       -> ends vs middle:      {p_codes}")

print("\nA P3 on its own and a P3 beside a P4 in one graph get equal codes:")
p3p4 = GraphInstance(node_count=7, edges=[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
alone, joined = dataset_wl_codes([path, p3p4], iterations=2)
print(f"  P3 alone          {alone}")
print(f"  P3 beside a P4    {joined[:3]}   (P4 part {joined[3:]})")
