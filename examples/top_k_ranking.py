"""Bounds-first top-k ranking over probabilistic answers.

A movie-recommendation integration: uncertain viewing records, probabilistic
genre tags, and noisy similarity links. We want the 3 movies most probably
enjoyed by a target user's taste cluster — without paying exact inference for
every candidate. Dissociation bounds (one extensional pass over the plan)
enclose every answer's probability; answers whose upper bound falls below
the k-th largest lower bound are certified out, and only the contested
candidates are solved exactly. The ranking is identical to exact-all.

Run:  python examples/top_k_ranking.py
"""

import random
import time

from repro import (
    DissociationEvaluator,
    PartialLineageEvaluator,
    ProbabilisticDatabase,
    certified_top_k,
    left_deep_plan,
    parse_query,
)


def build_database(seed: int = 11) -> ProbabilisticDatabase:
    rng = random.Random(seed)
    movies = [f"m{i:02d}" for i in range(25)]
    users = [f"u{i}" for i in range(12)]
    genres = ["drama", "scifi", "noir", "comedy"]

    db = ProbabilisticDatabase()
    watched = {}
    for user in users:
        for movie in rng.sample(movies, rng.randint(2, 6)):
            watched[(user, movie)] = rng.uniform(0.4, 1.0)
    db.add_relation("Watched", ("user", "movie"), watched)

    tagged = {}
    for movie in movies:
        for genre in rng.sample(genres, rng.randint(1, 2)):
            tagged[(movie, genre)] = rng.uniform(0.5, 1.0)
    db.add_relation("Tagged", ("movie", "genre"), tagged)

    likes = {}
    for user in users:
        for genre in rng.sample(genres, rng.randint(1, 3)):
            likes[(user, genre)] = rng.uniform(0.3, 0.95)
    db.add_relation("Likes", ("user", "genre"), likes)
    return db


def main() -> None:
    db = build_database()
    # probability that movie m is tagged with a genre some watcher of m likes
    q = parse_query(
        "q(movie) :- Watched(user, movie), Likes(user, genre), "
        "Tagged(movie, genre)"
    )
    plan = left_deep_plan(q, ["Watched", "Likes", "Tagged"])
    result = PartialLineageEvaluator(db).evaluate(plan)
    n_answers = len(result.relation)
    print(f"{n_answers} candidate movies, "
          f"{result.offending_count} offending tuples conditioned\n")

    start = time.perf_counter()
    bounds = DissociationEvaluator(db).evaluate(plan)
    report = certified_top_k(result, bounds, 3)
    topk_time = time.perf_counter() - start
    print(f"certified top-3 ({report.refined} candidates refined exactly, "
          f"{report.certified_out} certified out by their bounds, "
          f"{topk_time:.3f}s):")
    for rank, answer in enumerate(report.answers, start=1):
        print(f"  {rank}. {answer.row[0]}  Pr = {answer.probability:.4f}  "
              f"bounds [{answer.lower:.4f}, {answer.upper:.4f}]")

    start = time.perf_counter()
    exact = result.answer_probabilities()
    exact_time = time.perf_counter() - start
    ranked = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    print(f"\nexact ranking for comparison ({exact_time:.3f}s over all "
          f"{n_answers} answers):")
    for rank, (row, p) in enumerate(ranked, start=1):
        print(f"  {rank}. {row[0]}  Pr = {p:.4f}")
    assert [a.row for a in report.answers] == [row for row, _ in ranked]
    print("\nrankings agree.")


if __name__ == "__main__":
    main()
