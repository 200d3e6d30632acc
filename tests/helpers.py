"""Helpers that several test modules share."""


def all_steps(pool):
    """Every step of an ExperiencePool, trajectory by trajectory, as the
    `Step` views its trajectories yield."""
    for traj in pool.trajectories:
        yield from traj
