#include "src/md/md_io.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rinkit::md::io {

void writePdb(const Protein& p, std::ostream& out) {
    count serial = 1;
    for (index ri = 0; ri < p.size(); ++ri) {
        const Residue& r = p.residue(ri);
        for (const auto& a : r.atoms) {
            char line[96];
            std::snprintf(line, sizeof(line),
                          "ATOM  %5llu %-4s %3s A%4u    %8.3f%8.3f%8.3f  1.00  0.00          %2s",
                          static_cast<unsigned long long>(serial++), a.name.c_str(),
                          r.name.c_str(), static_cast<unsigned>(ri + 1), a.position.x,
                          a.position.y, a.position.z, a.element.c_str());
            out << line << '\n';
        }
    }
    out << "END\n";
}

void writePdbFile(const Protein& p, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    writePdb(p, out);
}

Protein readPdb(std::istream& in, const std::string& name) {
    std::vector<Residue> residues;
    long currentSeq = -1;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("ATOM", 0) != 0) continue;
        if (line.size() < 54) throw std::runtime_error("PDB: truncated ATOM record");
        const std::string atomName = line.substr(12, 4);
        const std::string resName = line.substr(17, 3);
        const long resSeq = std::stol(line.substr(22, 4));
        const double x = std::stod(line.substr(30, 8));
        const double y = std::stod(line.substr(38, 8));
        const double z = std::stod(line.substr(46, 8));
        // stod accepts "nan" and "inf"; a non-finite atom would silently
        // drop out of every contact test downstream.
        if (!std::isfinite(x) || !std::isfinite(y) || !std::isfinite(z))
            throw std::runtime_error("PDB: non-finite coordinate: " + line);
        std::string element = line.size() >= 78 ? line.substr(76, 2) : " C";

        auto trim = [](std::string s) {
            const auto b = s.find_first_not_of(' ');
            const auto e = s.find_last_not_of(' ');
            return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
        };

        if (resSeq != currentSeq) {
            residues.emplace_back();
            residues.back().name = trim(resName);
            currentSeq = resSeq;
        }
        residues.back().atoms.push_back({trim(atomName), trim(element), {x, y, z}});
    }
    if (residues.empty()) throw std::runtime_error("PDB: no ATOM records");
    return Protein(name, std::move(residues));
}

Protein readPdbFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return readPdb(in, path);
}

void writeXyzTrajectory(const Trajectory& traj, std::ostream& out) {
    out.precision(12); // lossless enough for Angstrom-scale round trips
    // Element per atom from the topology, in flat order.
    std::vector<std::string> elements;
    for (const auto& r : traj.topology().residues()) {
        for (const auto& a : r.atoms) elements.push_back(a.element);
    }
    for (index f = 0; f < traj.frameCount(); ++f) {
        const auto& pos = traj.frame(f);
        out << pos.size() << '\n';
        out << "frame " << f << '\n';
        for (count i = 0; i < pos.size(); ++i) {
            out << elements[i] << ' ' << pos[i].x << ' ' << pos[i].y << ' ' << pos[i].z
                << '\n';
        }
    }
}

void writeXyzTrajectoryFile(const Trajectory& traj, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    writeXyzTrajectory(traj, out);
}

Trajectory readXyzTrajectory(std::istream& in, const Protein& topology) {
    Trajectory traj(topology);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const count natoms = std::stoull(line);
        if (natoms != topology.atomCount()) {
            throw std::runtime_error("XYZ: frame atom count does not match topology");
        }
        if (!std::getline(in, line)) throw std::runtime_error("XYZ: missing comment line");
        std::vector<Point3> pos(natoms);
        for (count i = 0; i < natoms; ++i) {
            if (!std::getline(in, line)) throw std::runtime_error("XYZ: truncated frame");
            std::istringstream ls(line);
            std::string elem;
            if (!(ls >> elem >> pos[i].x >> pos[i].y >> pos[i].z)) {
                throw std::runtime_error("XYZ: malformed atom line: " + line);
            }
        }
        traj.addFrame(std::move(pos));
    }
    return traj;
}

Trajectory readXyzTrajectoryFile(const std::string& path, const Protein& topology) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return readXyzTrajectory(in, topology);
}

} // namespace rinkit::md::io
