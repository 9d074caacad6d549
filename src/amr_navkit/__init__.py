"""amr-navkit: 2D simulation, expert planning, trajectory tokenization, and
closed-loop evaluation for precise object-relative navigation.

Modules:
    geometry    - SE(2) algebra, box side labeling, goal-pose and tilt math
    scene       - procedural rooms, collision queries, LiDAR, kinematics
    planner     - zero-turning-radius expert planner and waypoint extraction
    codec       - polar waypoint quantization with residuals
    controller  - pure pursuit, tilt regulation, closed-loop episodes
    pipeline    - task sampling, demonstration generation, dataset files
    evaluation  - benchmark runner and metrics reports
    cli         - batch entry points (gen-scenes, gen-data, eval, report)
"""

__version__ = "0.1.0"
