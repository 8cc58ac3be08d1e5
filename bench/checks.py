"""Checks of every pipeline output against computations made apart from the
program: own parsers for its file formats, own scoring, own numpy `slogdet`
losses, own ranking and metrics.

Each `check_*` function raises `CheckError` on the first violation and
returns the number of facts it verified.  Item and user indices follow the
program's documented convention: dense, in order of first appearance in
`filtered.csv`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

SCORE_CLAMP = 30.0


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _stamped_lines(path: Path) -> list[str]:
    return [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]


class Log:
    """filtered.csv, indexed densely by first appearance."""

    def __init__(self, path: Path) -> None:
        users: dict[str, int] = {}
        items: dict[str, int] = {}
        cats: dict[str, int] = {}
        self.item_cats: dict[int, set[int]] = {}
        per_user: list[list[tuple[int, int, int]]] = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            require(next(reader) == ["user_id", "item_id", "timestamp", "categories"], "bad header")
            for order, (u_s, i_s, ts, c_s) in enumerate(reader):
                u = users.setdefault(u_s, len(users))
                i = items.setdefault(i_s, len(items))
                if u == len(per_user):
                    per_user.append([])
                per_user[u].append((int(ts), order, i))
                self.item_cats.setdefault(i, set()).update(
                    cats.setdefault(c, len(cats)) for c in c_s.split(";")
                )
        self.n_users, self.n_items, self.n_categories = len(users), len(items), len(cats)
        self.sequences = [[i for _, _, i in sorted(entries)] for entries in per_user]

    def split(self, T: int) -> list[tuple[list[int], list[int], list[int]] | None]:
        """Own split: last T to test, floor 90% of the rest to train."""
        out = []
        for seq in self.sequences:
            if len(seq) <= T + 1:
                out.append(None)
                continue
            head = seq[:-T]
            n_train = (9 * len(head)) // 10
            out.append((head[:n_train], head[n_train:], seq[-T:]))
        return out


def read_matrix_rows(lines: list[str]) -> np.ndarray:
    return np.array([[float(v) for v in ln.split()] for ln in lines], dtype=float)


def read_kernel(path: Path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    n, d = int(lines[0]), int(lines[1])
    V = read_matrix_rows(lines[3 : 3 + n])
    require(V.shape == (n, d), "kernel shape differs from its header")
    return V


def read_scorer(path: Path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    n_users, n_items = int(lines[0]), int(lines[1])
    at = 3
    tables = {}
    for name, rows in (("user", n_users), ("item_in", n_items), ("item_out", n_items)):
        tables[name] = read_matrix_rows(lines[at : at + rows])
        at += rows
    tables["bias"] = np.array([float(v) for v in lines[at].split()])
    for arr in tables.values():
        require(bool(np.all(np.isfinite(arr))), "checkpoint holds a non-finite value")
    return tables


def read_instances(path: Path) -> list[tuple[int, tuple, tuple, tuple, int]]:
    out = []
    for ln in _stamped_lines(path)[1:]:
        u, p, t, n, step = ln.split("\t")
        parse = lambda s: tuple(int(x) for x in s.split(",") if x)
        out.append((int(u), parse(p), parse(t), parse(n), int(step)))
    return out


def check_prepare(out: Path, k_core: int, T: int, L: int, Z: int, log: Log) -> int:
    facts = 0
    user_deg = [len(s) for s in log.sequences]
    item_deg = np.bincount(np.concatenate([np.asarray(s) for s in log.sequences]), minlength=log.n_items)
    require(min(user_deg) >= k_core, "a user below the k-core survives")
    require(int(item_deg.min()) >= k_core, "an item below the k-core survives")
    facts += len(user_deg) + log.n_items

    split = log.split(T)
    manifest = Path(out / "split_manifest.tsv").read_text().splitlines()[1:]
    require(len(manifest) == log.n_users, "split manifest has the wrong number of users")
    for row, parts in zip(manifest, split):
        u, n_tr, n_va, n_te = (int(x) for x in row.split("\t"))
        want = (0, 0, 0) if parts is None else tuple(len(p) for p in parts)
        require((n_tr, n_va, n_te) == want, f"user {u}: split sizes {(n_tr, n_va, n_te)} != {want}")
        facts += 1

    instances = read_instances(out / "instances.tsv")
    expected = 0
    for u, parts in enumerate(split):
        if parts is None:
            continue
        train = parts[0]
        unseen = log.n_items - len(set(log.sequences[u]))
        if unseen >= Z:
            expected += sum(
                1
                for s in range(len(train) - L - T + 1)
                if len(set(train[s : s + L + T])) == L + T
            )
    require(len(instances) == expected, f"{len(instances)} instances, expected {expected}")
    histories = [set(s) for s in log.sequences]
    for u, prev, targets, negs, step in instances:
        train = split[u][0]
        require(list(prev + targets) == train[step - L : step + T], f"user {u}: window mismatch")
        require(len(negs) == Z and len(set(negs)) == Z, f"user {u}: wrong negatives")
        require(not histories[u] & set(negs), f"user {u}: negative in history")
        facts += 1
    return facts


def read_sets(path: Path) -> dict[int, list[tuple[frozenset, frozenset]]]:
    pending: dict[int, list[frozenset]] = {}
    pairs: dict[int, list[tuple[frozenset, frozenset]]] = {}
    for ln in Path(path).read_text().splitlines():
        u_s, sign, ids = ln.split("\t")
        items = frozenset(int(x) for x in ids.split(","))
        if sign == "+":
            pending.setdefault(int(u_s), []).append(items)
        else:
            pairs.setdefault(int(u_s), []).append((pending[int(u_s)].pop(0), items))
    require(not any(pending.values()), "a positive set has no negative")
    return pairs


def check_gen_sets(out: Path, T: int, log: Log) -> int:
    pairs = read_sets(out / "diverse_sets.tsv")
    split = log.split(T)
    users = {u for u, parts in enumerate(split) if parts is not None and parts[0]}
    require(set(pairs) == users, "set file does not cover exactly the users with train items")
    facts = 0
    for u, user_pairs in pairs.items():
        train = set(split[u][0])
        history = set(log.sequences[u])
        covered = set()
        for pos, neg in user_pairs:
            require(pos <= train, f"user {u}: positive set outside train items")
            require(not neg & history, f"user {u}: negative set meets the history")
            require(len(neg) == len(pos), f"user {u}: unmatched set sizes")
            covered |= pos
            facts += 1
        require(covered == train, f"user {u}: positive sets do not cover the train items")
    return facts


def check_train_kernel(out: Path, n_items: int, kernel_dim: int) -> int:
    V = read_kernel(out / "kernel.txt")
    require(V.shape == (n_items, kernel_dim), "kernel has the wrong shape")
    require(bool(np.all(np.abs(np.linalg.norm(V, axis=1) - 1.0) < 1e-12)), "kernel rows not unit norm")
    objective = [float(ln.split(",")[1]) for ln in _stamped_lines(out / "kernel_objective.csv")[1:]]
    require(len(objective) >= 2 and all(math.isfinite(v) for v in objective), "objective not finite")
    require(objective[-1] > objective[0], "kernel objective did not rise")
    return n_items + len(objective)


def own_scores(params: dict[str, np.ndarray], user: int, previous, candidates) -> np.ndarray:
    context = params["user"][user] + params["item_in"][list(previous)].mean(axis=0)
    cand = np.asarray(candidates, dtype=int)
    return params["item_out"][cand] @ context + params["bias"][cand]


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _set_log_prob(V: np.ndarray, items, scores, selected: int, conditioned: int) -> float:
    """log det(L_S) - log det(L + I_mask) with L = diag(q) V_g V_g^T diag(q),
    S the first `selected` positions and the first `conditioned` of them
    left out of the identity mask."""
    q = np.exp(np.clip(scores, -SCORE_CLAMP, SCORE_CLAMP) / 2.0)
    rows = V[list(items)] * q[:, None]
    Lm = rows @ rows.T
    sign_num, num = np.linalg.slogdet(Lm[:selected, :selected])
    mask = np.ones(len(items))
    mask[:conditioned] = 0.0
    sign_den, den = np.linalg.slogdet(Lm + np.diag(mask))
    require(sign_num > 0 and sign_den > 0, "singular set kernel")
    return num - den


def own_loss(kind: str, params, V, instance) -> float:
    u, prev, targets, negs, _ = instance
    T = len(targets)
    if kind in ("ce", "bpr"):
        negs = negs if kind == "ce" else negs[:T]
        s = own_scores(params, u, prev, targets + negs)
        t, n = s[:T], s[T:]
        if kind == "ce":
            return float(-np.sum(_log_sigmoid(t)) - np.sum(_log_sigmoid(-n)))
        return float(-np.sum(_log_sigmoid(t - n)))
    if kind == "dsl":
        items = targets + negs
        return -_set_log_prob(V, items, own_scores(params, u, prev, items), T, 0)
    items = prev + targets + negs
    return -_set_log_prob(V, items, own_scores(params, u, prev, items), len(prev) + T, len(prev))


def check_train(out: Path, kind: str, program_losses: list, sample: list, max_epochs: int) -> int:
    """`program_losses[k]` is the program's LossResult for `sample[k]` at the
    saved parameters."""
    params = read_scorer(out / f"scorer_{kind}.txt")
    V = read_kernel(out / "kernel.txt") if kind in ("dsl", "cdsl") else None
    for inst, result in zip(sample, program_losses):
        require(not result.skipped, f"{kind}: instance skipped")
        want = own_loss(kind, params, V, inst)
        require(
            abs(result.value - want) <= 1e-9 * max(abs(want), 1e-300),
            f"{kind}: loss {result.value!r} != own {want!r}",
        )
    log_rows = _stamped_lines(out / f"train_log_{kind}.csv")[1:]
    require(len(log_rows) == max_epochs, f"{kind}: {len(log_rows)} epochs, expected {max_epochs}")
    require(all(math.isfinite(float(r.split(",")[1])) for r in log_rows), f"{kind}: non-finite loss")
    return len(sample) + len(log_rows)


def own_metrics(params, log: Log, T: int, L: int, n_list) -> dict[int, tuple[float, float, float]]:
    """Mean Recall, NDCG and CC@N over users; ties go to the lower item index."""
    all_items = np.arange(log.n_items)
    sums = {N: np.zeros(3) for N in n_list}
    users = 0
    for u, parts in enumerate(log.split(T)):
        if parts is None:
            continue
        train, valid, test = parts
        exclude = set(train) | set(valid)
        cand = np.array([i for i in all_items if i not in exclude])
        if cand.size == 0:
            continue
        s = own_scores(params, u, (train + valid)[-L:], cand)
        ranked = cand[np.lexsort((cand, -s))]
        relevant = set(test)
        for N in n_list:
            top = [int(i) for i in ranked[:N]]
            hits = [r for r, i in enumerate(top) if i in relevant]
            dcg = sum(1.0 / math.log2(r + 2) for r in hits)
            idcg = sum(1.0 / math.log2(r + 2) for r in range(min(N, len(relevant))))
            covered = set().union(*(log.item_cats[i] for i in top))
            sums[N] += (len(hits) / len(relevant), dcg / idcg, len(covered) / log.n_categories)
        users += 1
    require(users > 0, "no user to evaluate")
    return {N: tuple(sums[N] / users) for N in n_list}


def check_evaluate(out: Path, kind: str, log: Log, T: int, L: int, n_list) -> int:
    params = read_scorer(out / f"scorer_{kind}.txt")
    want = own_metrics(params, log, T, L, n_list)
    rows = _stamped_lines(out / f"metrics_{kind}.csv")[1:]
    require(len(rows) == len(n_list), f"{kind}: wrong number of metric rows")
    for row in rows:
        loss, _, N, recall, ndcg, cc, f = row.split(",")
        got = (float(recall), float(ndcg), float(cc))
        for name, g, w in zip(("recall", "ndcg", "cc"), got, want[int(N)]):
            require(abs(g - w) <= 5e-7 + 1e-12, f"{kind} {name}@{N}: {g} != own {w:.6f}")
    return 3 * len(rows)


def own_marginals(Lm: np.ndarray) -> np.ndarray:
    """Marginal kernel K = L (L + I)^-1."""
    return Lm @ np.linalg.inv(Lm + np.eye(Lm.shape[0]))


def check_distribution_sums(dist: dict) -> None:
    require(abs(sum(dist.values()) - 1.0) <= 1e-9, "enumerated distribution does not sum to 1")


def verify_ground_set(kernel, previous, targets, negatives, scores, api) -> int:
    """Compare the program's set likelihoods, losses and score gradients for
    one ground set against brute-force enumeration by the program's oracle,
    and the oracle against own numpy formulas.  Returns the checks made.

    `api` is a namespace holding the program's `kernels`, `losses` and
    `oracle` modules, looked up at call time so that traced wrappers apply.
    """
    kernels, losses, oracle = api.kernels, api.losses, api.oracle
    P, T = len(previous), len(targets)
    close = lambda a, b, tol=1e-8: abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)
    checks = 0

    full = kernels.GroundSet(previous=previous, targets=targets, negatives=negatives)
    sk = kernels.build_sequence_kernel(kernels.QualityVector.from_raw_scores(scores), kernel, full)
    dist = oracle.oracle_dpp_distribution(sk)
    check_distribution_sums(dist)
    obs = tuple(range(P))
    sel = tuple(range(P + T))
    cond = oracle.oracle_conditional_distribution(sk, obs)
    check_distribution_sums(cond)
    p_cond = cond[frozenset(sel)]
    require(close(math.exp(kernels.cdsl_log_likelihood(sk, obs, sel)), p_cond), "cdsl likelihood != oracle")
    cdsl = losses.cdsl_loss(full, scores, kernel)
    require(close(cdsl.value, -math.log(p_cond)), "cdsl loss != oracle")
    require(close(dist[frozenset(sel)] / sum(p for s, p in dist.items() if set(obs) <= s), p_cond), "conditional != ratio")
    checks += 5

    K = own_marginals(sk.matrix)
    i, j = P, P + T  # first target, first negative
    require(close(oracle.oracle_marginal(sk, i), K[i, i], 1e-7), "marginal != own K_ii")
    require(close(oracle.oracle_pair_probability(sk, i, j), K[i, i] * K[j, j] - K[i, j] * K[j, i], 1e-7), "pair != own det K")
    checks += 2

    fd = oracle.oracle_fd_gradient(lambda x: losses.cdsl_loss(full, x, kernel).value, scores)
    require(bool(np.all(np.abs(fd - cdsl.grad_scores) <= 1e-5 * np.maximum(1.0, np.abs(fd)))), "cdsl gradient != finite differences")
    checks += 1

    if T >= 2:
        sub = kernels.GroundSet(previous=(), targets=targets, negatives=negatives)
        s_sub = np.asarray(scores)[P:]
        sk_sub = kernels.build_sequence_kernel(kernels.QualityVector.from_raw_scores(s_sub), kernel, sub)
        dist_sub = oracle.oracle_dpp_distribution(sk_sub)
        check_distribution_sums(dist_sub)
        p_t = dist_sub[frozenset(range(T))]
        require(close(math.exp(kernels.dsl_log_likelihood(sk_sub, tuple(range(T)))), p_t), "dsl likelihood != oracle")
        dsl = losses.dsl_loss(sub, s_sub, kernel)
        require(close(dsl.value, -math.log(p_t)), "dsl loss != oracle")
        fd = oracle.oracle_fd_gradient(lambda x: losses.dsl_loss(sub, x, kernel).value, s_sub)
        require(bool(np.all(np.abs(fd - dsl.grad_scores) <= 1e-5 * np.maximum(1.0, np.abs(fd)))), "dsl gradient != finite differences")
        checks += 4
    return checks
